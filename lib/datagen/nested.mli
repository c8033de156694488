(** Recursive-schema dataset (Treebank-flavoured): report sections nesting
    into subsections of the same tag.

    Recursive element types are the classic hard case for path-based
    machinery: every nesting depth is a distinct dataguide path of the same
    tag, the DTD declares [section] inside [section], and entities sit
    under entities of the same name. Shape:

    [report/section*] where each [section] has [heading], [pagecount],
    optional [para]* and recursive [section]* children down to
    [max_depth]. Headings are unique (the mined key). Carries a DTD. *)

type config = {
  seed : int;
  top_sections : int;
  max_depth : int;    (** recursion depth below the top sections *)
  fanout : int;       (** max subsections per section *)
}

(* lint: allow unused-export *)
val default : config
(** seed 29, 6 top sections, depth 4, fanout 3. The oracle's deep-nesting
    generator: test/test_oracle.ml and test/test_datagen.ml build from it. *)

(* lint: allow unused-export *)
val generate : config -> Extract_xml.Types.document
(** The oracle's deep-nesting generator: test/test_oracle.ml and
    test/test_datagen.ml. *)

(* lint: allow unused-export *)
val sized : ?seed:int -> int -> Extract_xml.Types.document
(** [sized n] targets roughly [n] sections. Test use only:
    test/test_datagen.ml ["sized"]. *)
