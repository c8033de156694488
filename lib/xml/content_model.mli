(** DTD element content models and their repetition analysis.

    The paper's node classification (§2.1, following Liu & Chen [6]) hinges
    on whether a child tag is a "*-node" under its parent — i.e. whether the
    content model allows the tag to occur more than once. This module
    answers that question from a parsed model. *)

type rep =
  | Once  (** exactly one *)
  | Opt   (** [?] — zero or one *)
  | Star  (** [*] — zero or more *)
  | Plus  (** [+] — one or more *)

type particle = {
  item : item;
  rep : rep;
}

and item =
  | Name of string
  | Seq of particle list     (** [(a, b, c)] *)
  | Choice of particle list  (** [(a | b | c)] *)

type t =
  | Empty                 (** [EMPTY] *)
  | Any                   (** [ANY] *)
  | Pcdata                (** [(#PCDATA)] *)
  | Mixed of string list  (** [(#PCDATA | a | b)*] *)
  | Children of particle

val may_repeat : t -> string -> bool
(** [may_repeat model tag] is [true] when a conforming parent may contain
    two or more [tag] children: the tag sits under a [*]/[+] particle (at
    any depth), is mentioned more than once in a sequence, or the model is
    [Mixed] or [Any]. This is exactly the "*-node" test of the paper. *)

val to_string : t -> string
