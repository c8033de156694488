(** ASCII tree rendering, used for snippets and result trees on the CLI. *)

type tree = Node of string * tree list
(** A labelled rose tree. *)

val render : tree -> string
(** Unicode box-drawing rendition, one node per line, no trailing
    newline. Example:

    {v
    retailer
    ├── name "Brook Brothers"
    └── store
        └── city "Houston"
    v} *)

(* lint: allow unused-export *)
val render_ascii : tree -> string
(** Pure-ASCII variant ([|--], [`--]) for environments without UTF-8.
    Test use only: test/test_util.ml pins the layout through it. *)

(* lint: allow unused-export *)
val size : tree -> int
(** Number of nodes. Test use only: test/test_util.ml ["counts"]. *)

(* lint: allow unused-export *)
val depth : tree -> int
(** Length of the longest root-to-leaf path in edges; 0 for a leaf. Test
    use only: test/test_util.ml ["counts"]. *)
