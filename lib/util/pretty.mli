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
