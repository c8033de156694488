(** Multi-document corpora.

    The demo web site lets the user pick among several XML data sets
    ("movies and stores", §4); a corpus holds several analyzed databases
    under names and runs one query across all of them, merging the hits.
    Cross-document ranking uses each database's own XRank-style scores —
    IDF statistics are per-document, which matches how federated keyword
    search is usually approximated. *)

type t

type hit = Pipeline.hit = {
  segment : int;  (** the database's position in name order *)
  source : string;  (** name of the database the hit comes from *)
  score : float;
  snippet : Pipeline.snippet_result;
}

val empty : t

val add : t -> name:string -> Pipeline.t -> t
(** Functional add; replaces any database previously registered under the
    same name. *)

val of_list : (string * Pipeline.t) list -> t

val names : t -> string list
(** Registered names, alphabetical. *)

val find : t -> string -> Pipeline.t option

val load_file : ?on_warning:(string -> unit) -> string -> Pipeline.t
(** Load one database from [path], whatever it holds: a snapshot written
    by [extract pack] or XML (dispatch on the leading magic; anything
    unrecognized is parsed as XML). A retired version-1 artifact (magic
    [XTRARENA], [XTRBUNDL] or [XTRINDEX]) is refused as
    {!Extract_store.Codec.Corrupt} with a message that names
    [extract pack]. A snapshot is only a cache of its XML source, so one
    that cannot be loaded ({!Extract_store.Codec.Corrupt} or
    [Truncated]: damage, an older version, an injected fault) is not
    fatal when a sibling XML source ([foo.xml] or [foo] next to
    [foo.snap]) still exists — [on_warning] is told and the database is
    rebuilt from the source. With no sibling to rebuild from, the
    original exception is re-raised. *)

(* lint: allow unused-export *)
val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  string ->
  hit list
(** Search and rank every database, merge and sort by decreasing score
    (ties: source name, then document order), cut the {e merged} list at
    [limit], and only then snippet the hits kept
    ({!Pipeline.run_merged}). [deadline] is shared across the member
    databases and checked before each kept hit's snippet in rank order:
    once it expires, the remaining snippets degrade. Test use only:
    test/test_validation.ml ["snippet.corpus"], test_snippet.ml and
    test_live.ml compare merged runs with it; the server searches one named
    database. *)
