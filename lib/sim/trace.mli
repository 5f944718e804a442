(** The profile-guided superblock trace engine: tier 1 executes fused
    blocks while counting block-entry and edge heat; a leader crossing
    the hot threshold grows a superblock along the expected successor
    path — probability-guided (growth stops when the product of
    junction shares drops below a reach cutoff), return addresses
    matched to calls crossed on the path, whole loop bodies unrolled
    within the length bound — and compiles it to one straight-line
    continuation chain with a single pre-summed statistics delta —
    cross-junction delay-slot interlocks and squashing-branch annul
    accounting statically resolved, never-trapping operations
    specialised with their operators inlined — and guarded side exits
    that roll statistics and fuel back to the exact per-block values.  [Machine.run] on a [`Traced] machine dispatches
    once per trace on hot paths and stays bit-identical to the
    reference interpreter, [Out_of_fuel] tail included (enforced by the
    four-way engine differential suite). *)

module Image := Tagsim_asm.Image

(** Block entries before a leader is considered hot (default 32).
    Tests pass a small threshold to force early formation. *)
val default_threshold : int

(** Superblock length bound, in blocks. *)
val max_segments : int

(** Install the fused engine (via {!Fuse.attach}) and the trace-engine
    state — heat and edge-profile counters and the (initially empty)
    trace table — on the machine; idempotent and length-guarded like
    the other engines' attach.  Required before [Machine.run] on a
    machine created with [~engine:`Traced].  The state may be shared
    between machines running the same image: formed traces are
    validated like block memos, and racy profile updates only delay or
    repeat formation. *)
val attach : ?threshold:int -> Machine.t -> unit

(** Convenience: [Machine.create ~engine:`Traced] plus {!attach}. *)
val create : ?fuel:int -> ?threshold:int -> hw:Machine.hw -> Image.t -> Machine.t
