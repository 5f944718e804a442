(** Two-pass assembler: schedules delay slots, resolves labels and
    produces a loadable image.  Code and data live in separate address
    spaces (code addresses are instruction indices, data addresses byte
    addresses; all data accesses are word-aligned). *)

module Insn := Tagsim_mipsx.Insn
module Annot := Tagsim_mipsx.Annot

exception Error of string

type entry = { insn : int Insn.t; annot : Annot.t; speculative : bool }

type t = {
  code : entry array;
  code_symbols : (string, int) Hashtbl.t;
  data_symbols : (string, int) Hashtbl.t; (* byte addresses *)
  data_words : int array; (* initial data image, starting at address 0 *)
  data_end : int; (* first free byte address after static data *)
  source : Buf.item list; (* scheduled symbolic program, for dumps *)
}

(** The first data address handed out; lower addresses are reserved so
    that 0 is never a valid object address. *)
val data_base : int

val assemble : ?sched:Sched.config -> Buf.t -> t

(** Is a label compiler-generated (a ["$"]-digits fresh suffix, e.g.
    ["qp$3"]) rather than a named export like ["f$main"] or
    ["symtab$count"]? *)
val is_generated_label : string -> bool

(** Byte-identity: same resolved code, same initial data image and
    layout bound, and the same address for every named (non-generated)
    symbol.  Generated label {e names} may differ (e.g. between the
    monolithic and the staged backend, which draw fresh labels in a
    different order) without affecting any resolved word. *)
val equal : t -> t -> bool

(** Address of a code label; raises {!Error} if unknown. *)
val code_address : t -> string -> int

(** Byte address of a data label; raises {!Error} if unknown. *)
val data_address : t -> string -> int

val size_in_words : t -> int
val pp : Format.formatter -> t -> unit
