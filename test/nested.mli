(** Recursive-schema dataset (Treebank-flavoured): report sections nesting
    into subsections of the same tag.

    Recursive element types are the classic hard case for path-based
    machinery: every nesting depth is a distinct dataguide path of the same
    tag, the DTD declares [section] inside [section], and entities sit
    under entities of the same name. Shape:

    [report/section*] where each [section] has [heading], [pagecount],
    optional [para]* and recursive [section]* children down to
    [max_depth]. Headings are unique (the mined key). Carries a DTD.
    Only the oracle and the generator tests build it, so it lives with
    them. *)

type config = {
  seed : int;
  top_sections : int;
  max_depth : int;    (** recursion depth below the top sections *)
  fanout : int;       (** max subsections per section *)
}

val default : config
(** seed 29, 6 top sections, depth 4, fanout 3. *)

val generate : config -> Extract_xml.Types.document

val sized : ?seed:int -> int -> Extract_xml.Types.document
(** [sized n] targets roughly [n] sections. *)
