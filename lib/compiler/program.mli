(** Whole-program compilation, loading and execution: a Lisp source
    defining [(de main () ...)] is compiled with the prelude (unreachable
    functions pruned) and the runtime into one buffer, assembled, loaded
    into a simulator instance and run. *)

module Image := Tagsim_asm.Image
module Sched := Tagsim_asm.Sched
module Machine := Tagsim_sim.Machine
module Stats := Tagsim_sim.Stats
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module L := Tagsim_runtime.Layout

exception Error of string

(** Static metadata, for Table 3 (and the elision artifact). *)
type meta = {
  procedures : int; (* retained definitions, prelude included *)
  source_lines : int; (* non-blank lines of retained source *)
  object_words : int;
  checks_eliminated : int;
      (* checks the optimizer deleted across all functions; 0 under
         [`None] and for the monolithic oracle *)
}

type t = {
  image : Image.t;
  scheme : Scheme.t;
  support : Support.t;
  symtab : Symtab.t;
  sizes : L.sizes;
  mem_bytes : int;
  meta : meta;
  (* Engine-attachment caches, compiled on first [load] and shared by
     every later machine for this program (the closures capture only the
     image and hardware configuration, never a machine). *)
  mutable exec_cache : Machine.exec_fn array;
  mutable blocks_cache : Machine.block option array;
  mutable tstate_cache : Machine.tstate option;
}

(** {1 Staged pipeline}

    Parsing, macro-expansion and reachability pruning are independent of
    the tag scheme, the support flags and the scheduler configuration, so
    when one source is compiled under a whole configuration matrix the
    front half runs once ({!analyze}) and only the tag-dependent back
    half ({!compile_frontend}) re-runs per configuration.  A [frontend]
    is immutable and safe to share across worker domains. *)

type frontend = {
  fe_retained : (string * Tagsim_lisp.Ast.def) list;
      (* pruned, prelude included, definition order *)
  fe_procedures : int;
  fe_source_lines : int; (* user + retained prelude, non-blank lines *)
}

(** Parse, expand and prune a program (with the pre-expanded prelude);
    raises {!Error} on malformed sources. *)
val analyze : string -> frontend

(** Backend selection.  [`Incremental] (the default) is the staged
    path: each retained function goes through {!Lower}, optionally
    {!Checkelim}, and {!Select}, into one buffer with the startup stub
    and the runtime routines, assembled once.  [`Monolithic] is the
    frozen {!Codegen}, kept as the differential oracle.  At [`None]
    both produce byte-identical images ({!Tagsim_asm.Image.equal}). *)
type backend = [ `Monolithic | `Incremental ]

(** Optimization level for the staged backend's TIR pipeline:
    [`None] (default) selects straight from the lowered IR and is
    byte-identical to the monolithic oracle; [`Checks] runs the
    tag-knowledge check-elimination pass ({!Checkelim}) first.  The
    monolithic oracle ignores the knob (always unoptimized). *)
type opt = Tir.opt

(** The config-dependent back half: lowering, optimization and
    selection (or, for the monolithic backend, whole-program codegen),
    then scheduling and assembly. *)
val compile_frontend :
  ?backend:backend ->
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  scheme:Scheme.t ->
  support:Support.t ->
  frontend ->
  t

(** [compile_frontend] of [analyze]: the one-shot pipeline. *)
val compile :
  ?backend:backend ->
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  scheme:Scheme.t ->
  support:Support.t ->
  string ->
  t

(** {1 Results} *)

(** Host-side view of a Lisp value. *)
type hval =
  | Hint of int
  | Hsym of string
  | Hpair of hval * hval
  | Hvec of hval array
  | Hbox of int

val pp_hval : Format.formatter -> hval -> unit
val hval_to_string : hval -> string

(** Decode a machine word into a host value (bounded depth). *)
val decode : t -> Machine.t -> int -> hval

type result = {
  value : hval option; (* Some v on normal termination *)
  abort : string option;
  stats : Stats.t;
  gc_collections : int;
  gc_bytes_copied : int;
  map : L.map;
}

val abort_message : int -> string

(** Content digest of the image code plus the scheme/memory token.
    Kept only until a benchmark change drops it (it counts distinct
    simulated inputs). *)
val plan_key : t -> string

(** Create a machine, poke the memory-map words and register the trap
    handlers; ready to run from address 0.  [engine] selects the
    simulator engine (default [`Traced], the fast path; all engines
    produce bit-identical statistics).  Under [`Traced], the program's
    tstate (heat, edge profile, formed traces) is shared by every
    machine it loads, so a later run starts with the traces an earlier
    one formed online. *)
val load : ?fuel:int -> ?engine:Machine.engine -> t -> Machine.t * L.map

(** [run] is [load] + [Machine.run] + result decoding. *)
val run : ?fuel:int -> ?engine:Machine.engine -> t -> result

(** Compile and run in one step. *)
val run_source :
  ?opt:opt ->
  ?sched:Sched.config ->
  ?sizes:L.sizes ->
  ?mem_bytes:int ->
  ?fuel:int ->
  ?engine:Machine.engine ->
  scheme:Scheme.t ->
  support:Support.t ->
  string ->
  t * result
