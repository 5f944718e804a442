(** The instruction-level simulator.  Cost model: one cycle per
    instruction, with the deviations documented in the implementation
    header (wide immediates, multiply/divide, load-use interlocks,
    squashed slots, trap overhead) — all of them visible to the paper's
    cycle accounting.

    Three execution engines share this state:
    - [`Reference]: the original interpreter, re-decoding every retired
      instruction ({!step} in a loop);
    - [`Predecoded]: each image entry is compiled once into a closure by
      {!Predecode.attach}; {!run} then performs an array-indexed closure
      call per instruction;
    - [`Fused]: straight-line runs of pre-decoded instructions are fused
      into basic-block closures by {!Fuse.attach}; {!run} then dispatches
      once per block, with statically-knowable statistics pre-summed and
      successor blocks chained directly;
    - [`Traced]: fused blocks run under a block-entry/edge heat profile
      ({!Trace.attach}); hot paths are promoted to superblock traces —
      one straight-line closure spanning several blocks with a single
      pre-summed statistics delta and guarded side exits that roll back
      to exact per-block accounting.  All engines must produce
      bit-identical {!Stats.t} (enforced by the differential engine
      suite). *)

module Insn := Tagsim_mipsx.Insn
module Image := Tagsim_asm.Image

exception Machine_error of string

(** Hardware configuration: tag geometry and the semantics of the
    tag-aware instructions.  Supplied by the tag scheme in use
    (see {!Tagsim_tags.Scheme.machine_hw}). *)
type hw = {
  mem_bytes : int; (* power of two *)
  tag_shift : int;
  tag_width : int;
  addr_mask : int; (* applied by tag-ignoring and checked memory ops *)
  is_int_item : int -> bool; (* hardware integer test, for Add_gen *)
  gen_overflowed : int -> int -> int -> bool;
  trap_overhead : int;
}

type outcome = Halted of int | Aborted of int

(** Execution engine selector (see the module header). *)
type engine = [ `Reference | `Predecoded | `Fused | `Traced ]

(** {1 Engine registry}

    The canonical engine names, for CLI parsing and reporting. *)

val engine_name : engine -> string

(** All engines, in reference-to-fastest order. *)
val engine_all : engine list

(** Inverse of {!engine_name}; [None] for an unknown name. *)
val engine_by_name : string -> engine option

(** The machine state.  The record is exposed so that {!Predecode} and
    {!Fuse} can compile closures that operate on it directly; treat it
    as read-only outside [lib/sim] and use the accessors below. *)
type t = {
  hw : hw;
  code : Image.entry array;
  code_entries : int array; (* addresses of all code labels *)
  mem : int array;
  regs : int array;
  mutable pc : int;
  mutable pending_load : int; (* register with an in-flight load, or -1 *)
  mutable jump_target : int;
      (* scratch for fused register-indirect jumps: the target is read
         before the delay slots run (they may clobber the register) and
         consumed by the slot chain's final pc update *)
  mutable trap_dest : int; (* destination register of a trapped insn *)
  mutable gen_add_handler : int; (* code address, -1 = none *)
  mutable gen_sub_handler : int;
  stats : Stats.t;
  mutable outcome : outcome option;
  mutable fuel : int;
  mutable in_slot : bool; (* executing a delay-slot instruction *)
  engine : engine;
  mutable exec : exec_fn array; (* installed by Predecode.attach *)
  mutable blocks : block option array; (* installed by Fuse.attach *)
  mutable tstate : tstate option; (* installed by Trace.attach *)
}

and exec_fn = t -> unit

(** A fused basic block (built by {!Fuse.attach}): [b_exec] retires the
    whole straight-line run — including the terminator's delay slots —
    in one call and returns the successor pc (negative once the outcome
    is decided), [b_steps] top-level retirements of fuel are pre-paid by
    the run loop (slots ride their branch's retirement), and the
    [b_next] slots memoise successor blocks for direct chaining.  A memo
    hit is validated against the immutable [b_pc], so a stale or torn
    read can only miss, never mis-chain: block arrays are shareable
    across domains. *)
and block = {
  b_pc : int; (* leader address of this block *)
  b_steps : int;
  b_exec : t -> int;
  mutable b_next1 : block option;
  mutable b_next2 : block option;
}

(** Trace-engine state (built by {!Trace.attach}): per-leader entry
    heat, a two-entry successor profile with decay, and the formed
    traces.  [ts_heat] saturates to [min_int] when a leader crosses
    [ts_threshold] and [ts_form] runs (installing a trace or, when more
    profile is needed, resetting the counter to retry).  Shareable
    between machines running the same image; racy profile updates only
    delay or repeat formation, never corrupt execution.  Traces are
    formed online only: a fresh tstate starts with an empty table. *)
and tstate = {
  ts_traces : trace option array;
  ts_heat : int array;
  ts_succ1 : int array;
  ts_cnt1 : int array;
  ts_succ2 : int array;
  ts_cnt2 : int array;
  ts_threshold : int;
  ts_form : t -> int -> unit;
}

(** A compiled superblock trace (built by {!Trace}): [tr_exec] retires
    the whole expected path — [tr_blocks] fused blocks, [tr_steps]
    pre-paid top-level retirements — in one call and returns the next
    pc: [tr_exit] when the expected path completed, another pc after a
    guarded side exit (statistics and fuel already rolled back to the
    exact per-block values), or a negative value once the outcome is
    decided.  [tr_next] memoises the trace at [tr_exit] for direct
    chaining (a loop trace chains to itself), validated against the
    immutable [tr_pc] like block memos. *)
and trace = {
  tr_pc : int; (* leader address of the trace head *)
  tr_blocks : int;
  tr_steps : int;
  tr_exit : int; (* successor pc of the expected path *)
  tr_exec : t -> int;
  mutable tr_next : trace option;
}

(** {1 Abort codes} *)

val err_type : int
val err_bounds : int
val err_mem : int
val err_div0 : int

(** [Trap n] aborts with code [err_user_base + n]. *)
val err_user_base : int

(** {1 Lifecycle} *)

val create : ?fuel:int -> ?engine:engine -> hw:hw -> Image.t -> t

(** Register the trap handlers for hardware generic arithmetic. *)
val set_gen_handlers : t -> add:int -> sub:int -> unit

val reg : t -> int -> int

(** Current program counter (an instruction index). *)
val pc : t -> int

(** Termination state, if the machine has stopped. *)
val outcome : t -> outcome option

val set_reg : t -> int -> int -> unit
val stats : t -> Stats.t

(** Direct memory access for the host (loader, result decoding,
    performance counters).  Addresses are byte addresses. *)
val peek : t -> int -> int

val poke : t -> int -> int -> unit

(** {1 Shared instruction semantics}

    Used by both the reference interpreter and the pre-decoder, so the
    two engines cannot drift. *)

val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val alu_cycles : Insn.alu -> int
val alu_eval : Insn.alu -> int -> int -> int
val cond_eval : Insn.cond -> int -> int -> bool
val abort : t -> int -> unit
val errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Execute one instruction (including its delay slots), by re-decoding
    it: this is the reference engine's step and works on any machine. *)
val step : t -> unit

exception Out_of_fuel

(** Run to completion with the machine's engine. *)
val run : t -> outcome

(** {1 Trace-engine instrumentation}

    Process-wide counters for the [`Traced] engine, accumulated across
    all domains once per {!run} (diagnostics only — they do not feed the
    paper's statistics). *)

type trace_totals = {
  tt_formed : int;  (** superblock traces formed *)
  tt_entries : int;  (** trace entries *)
  tt_side_exits : int;  (** trace exits off the expected path *)
  tt_in_trace : int;  (** instructions retired inside traces *)
  tt_retired : int;  (** instructions retired by traced runs, total *)
}

(** Called by {!Trace} when a trace is formed. *)
val note_trace_formed : unit -> unit

val trace_counters : unit -> trace_totals
val reset_trace_counters : unit -> unit
