(** The persistent (L2) measurement cache: a content-addressed on-disk
    store of serialized measurements, keyed by a digest of the program
    content, the tag-scheme/support/scheduler configuration, the prelude
    sources and the {!version} stamp.  Keys are engine-agnostic (all
    simulator engines are bit-identical).  Unreadable, truncated,
    corrupt or stale-version entries are treated as misses, never as
    errors; writes are atomic (temp file + rename).  See the
    implementation header for the full contract. *)

module Stats := Tagsim_sim.Stats
module Scheme := Tagsim_tags.Scheme
module Support := Tagsim_tags.Support
module Sched := Tagsim_asm.Sched
module Registry := Tagsim_programs.Registry
module Program := Tagsim_compiler.Program

(** The cache format/semantics stamp.  Bump it whenever code generation,
    the runtime, scheme semantics, the cost model or the [Stats] layout
    change: any of those alters measurements without changing the key's
    other inputs. *)
val version : string

(** The store is disabled by default (library users, e.g. tests, opt
    in); the CLI enables it unless [--no-cache]. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Store directory, default ["_tagsim_cache"].  Configure before any
    fan-out starts. *)
val dir : unit -> string

val set_dir : string -> unit

(** The content-addressed key of a configuration.  [opt] (default
    [`None]) is the backend optimization level — it changes the emitted
    code, so it participates in the digest. *)
val key :
  ?sched:Sched.config ->
  ?opt:Tagsim_compiler.Program.opt ->
  scheme:Scheme.t ->
  support:Support.t ->
  Registry.entry ->
  string

(** On-disk path of a key's entry (tests corrupt files through this). *)
val entry_path : string -> string

(** What a cache entry holds: everything a {!Run.measurement} carries
    beyond the configuration itself. *)
type payload = {
  p_stats : Stats.t;
  p_gc_collections : int;
  p_gc_bytes_copied : int;
  p_meta : Program.meta;
}

(** Look a key up; counts a hit or a miss.  [None] when disabled
    (uncounted), missing, unreadable, corrupt or version-stale. *)
val load : string -> payload option

(** Write an entry atomically; no-op when disabled, silent on failure. *)
val store : string -> payload -> unit

(** Delete every cache entry in {!dir}. *)
val wipe : unit -> unit

(** [(hits, misses, writes)] since start or {!reset_counters}. *)
val counters : unit -> int * int * int

val reset_counters : unit -> unit
