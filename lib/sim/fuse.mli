(** The basic-block fusion engine: straight-line runs of instructions
    are fused into single block closures with all
    statically-knowable statistics (instruction and class counts,
    per-slot cycle charges, in-block load-use interlocks) pre-summed
    into one delta applied on block entry, and successor blocks chained
    directly through a per-block memo.  [Machine.run] on a [`Fused]
    machine dispatches once per block instead of once per instruction.
    Produces bit-identical {!Stats.t} to the reference interpreter —
    including on dynamic early exits (division by zero, checked-load
    type traps, generic-arithmetic traps, fuel exhaustion), which undo
    the pre-summed statistics and refund the pre-paid fuel of the
    unexecuted block suffix (enforced by the engine differential
    suite).  A terminator whose delay slots cannot be fused ends no
    block: the block falls through to it and the run loop retires it
    with the reference [Machine.step].

    The building blocks of fusion — static per-instruction statistics
    accumulation, flattened deltas, and the continuation-chain compilers
    for simple instructions and branch conditions — are exposed below
    for {!Trace}, which reuses them to compile multi-block superblocks;
    they are not meant for use outside [lib/sim]. *)

module Image := Tagsim_asm.Image
module Insn := Tagsim_mipsx.Insn

(** Build the block array for a machine's code (exposed for tests;
    normally use {!attach}).  Index [i] is [Some] iff [i] is a block
    leader — the entry point, a code label, a branch or jump target, the
    fall-through after a control instruction and its two delay slots, or
    the resumption point after a generic-arithmetic instruction — other
    than a terminator whose delay slots cannot be fused. *)
val compile : Machine.t -> Machine.block option array

(** Install the fused block array on the machine; idempotent.  Required before
    [Machine.run] on a machine created with [~engine:`Fused]. *)
val attach : Machine.t -> unit

(** {1 Fusion building blocks (shared with {!Trace})} *)

(** A fused continuation returns the successor pc, or {!stopped} (any
    negative value) once the outcome is decided. *)
type chain_fn = Machine.t -> int

val stopped : int

(** Dense statistics accumulator used at fuse time. *)
type acc = {
  mutable a_cycles : int;
  mutable a_insns : int;
  mutable a_interlocks : int;
  mutable a_squashed : int;
  a_kind : int array;
  a_klass : int array;
}

val acc_create : unit -> acc
val acc_add : acc -> acc -> unit

(** Mirrors [Stats.charge] with the annotation slot pre-resolved. *)
val acc_charge : acc -> int -> int -> unit

(** The squashed-slot accounting of an annulling branch (two cycles,
    charged to the branch's annotation slot), statically applied when a
    trace's expected path falls through a squashing branch. *)
val acc_squash : acc -> int -> unit

(** The statically-knowable statistics of one instruction: count, the
    unconditional success-path cycle charge (control instructions issue
    in one cycle), and the load-use interlock against the given
    predecessor. *)
val contribution : Image.entry option -> Image.entry -> acc

(** A pre-summed statistics delta, flattened for single-sweep
    application (see the implementation header for the layout). *)
type delta = int array

val compress : acc -> delta

(** A shape-specialised applier for one delta (falls back to the
    generic sweep for large or squash-carrying deltas). *)
val apply_fn : delta -> Stats.t -> unit

val delta_undo : Stats.t -> delta -> unit

(** The dynamic block/trace-entry interlock charge (the one probe fusion
    cannot remove: the previous block may end in a load). *)
val interlock_stats : Machine.t -> unit

(** Registers read by an instruction as a pre-resolved pair (at most
    two; -1 = none). *)
val read_regs : int Insn.t -> int * int

(** The register left with an in-flight load by an instruction at a
    block exit (-1 for anything but a load). *)
val exit_pl_of : int Insn.t -> int

val squash_of : Image.entry -> bool

(** Compile one simple (non-control, possibly trapping) instruction
    into a closure doing only the genuinely dynamic work, with the
    operator of a never-trapping ALU operation inlined, tail-calling
    [next] on the success path.  On a dynamic exit it undoes the
    pre-summed statistics of the unexecuted remainder ([undo]), refunds
    [refund] pre-paid fuel, and does not call [next]. *)
val compile_op :
  Machine.hw ->
  Image.entry ->
  pc:int ->
  undo:delta Lazy.t ->
  refund:int ->
  next:chain_fn ->
  chain_fn

(** The condition of a conditional branch ([B], [Bi] or [Btag]),
    pre-resolved with the comparison inlined. *)
val cond_test : Machine.hw -> Image.entry -> Machine.t -> bool

(** The static layout of the block led by an address (shared with the
    trace compiler, which walks shapes along the hot path).  A
    terminator is fused when it is slotless or both its delay slots are
    simple (not control, not generic arithmetic); otherwise, and at the
    end of code, [sh_term] is [None] and the block falls through to
    [sh_stop]. *)
type shape = {
  sh_stop : int; (* first control instruction at/after the leader *)
  sh_term : Image.entry option; (* None: the block falls through to sh_stop *)
  sh_slots : (Image.entry * Image.entry) option; (* None: slotless *)
  sh_squash : bool;
}

val shape : Machine.t -> int -> shape
