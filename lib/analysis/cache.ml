(** The persistent (L2) measurement cache.

    Experiment re-runs are dominated by re-deriving byte-identical
    measurements: the same ten registry programs compiled and simulated
    under the same tag-scheme/support configurations as the previous
    invocation.  This module stores each measurement on disk under a
    content-addressed key, so a warm [tagsim experiments] run performs
    zero compilations and zero simulations.

    {b Key.} The hex digest of everything a measurement depends on:

    - the program's content {!Registry.fingerprint} (source, expected
      value, heap sizing);
    - the tag scheme (by name) and the support configuration (by its
      injective {!Support.describe} flag string);
    - the delay-slot scheduler configuration;
    - a digest of the prelude sources (edits to prelude Lisp invalidate
      automatically);
    - the {!version} stamp.

    Keys are engine-agnostic: all simulator engines are bit-identical
    (the differential suite enforces it), so a measurement produced by
    one engine is valid for every other.

    {b Version stamp.} [version] must be bumped on any change that can
    alter a measurement without changing the key's other inputs: code
    generation, runtime assembly, scheme semantics, the cost model, or
    the {!Stats.t} layout.  The stamp participates in the key digest
    {e and} heads the entry payload, so stale entries from either side
    of a bump are simply never hit.

    {b Robustness.} A cache entry is an optimisation, never an
    authority: unreadable, truncated, corrupt or stale-version entries
    are treated as misses (recompute), and write failures are ignored.
    Writes are atomic (unique temp file, then [rename]), so concurrent
    processes and worker domains can share one store. *)

module Stats = Tagsim_sim.Stats
module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Sched = Tagsim_asm.Sched
module Registry = Tagsim_programs.Registry
module Program = Tagsim_compiler.Program
module Prelude = Tagsim_compiler.Prelude

(* Bump on any measurement-affecting change: codegen, runtime, scheme
   semantics, cost model, or Stats layout (see the header comment).
   2: the optimization level joined the key and the payload meta line
   gained the eliminated-check count.
   3: the funcall path gained a dynamic arity check.
   4: checked multiplies verify their product by dividing it back. *)
let version = "4"

(* Configured once by the CLI entry point before any fan-out;
   plain refs because workers only read them. Disabled by default so
   that library users (tests above all) opt in explicitly. *)
let enabled_flag = ref false
let dir_ref = ref "_tagsim_cache"

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let dir () = !dir_ref
let set_dir d = dir_ref := d

let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let write_count = Atomic.make 0

let counters () =
  (Atomic.get hit_count, Atomic.get miss_count, Atomic.get write_count)

let reset_counters () =
  Atomic.set hit_count 0;
  Atomic.set miss_count 0;
  Atomic.set write_count 0

(* --- Keys. --- *)

let prelude_digest =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (List.concat_map (fun (name, src) -> [ name; src ])
             Prelude.functions)))

let sched_token (s : Sched.config) =
  Printf.sprintf "%b/%b/%b" s.Sched.hoist s.Sched.fill_unlikely
    s.Sched.squash_likely

let key ?(sched = Sched.default) ?(opt = `None) ~scheme ~support
    (entry : Registry.entry) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            "tagsim-cache";
            version;
            prelude_digest;
            Registry.fingerprint entry;
            scheme.Scheme.name;
            Support.describe support;
            sched_token sched;
            Tagsim_compiler.Tir.opt_token opt;
          ]))

let entry_path k = Filename.concat !dir_ref (k ^ ".entry")

(* --- Payload (de)serialisation. --- *)

type payload = {
  p_stats : Stats.t;
  p_gc_collections : int;
  p_gc_bytes_copied : int;
  p_meta : Program.meta;
}

(* A plain line-oriented integer format rather than [Marshal]: it is
   stable across compiler versions, trivially diffable when debugging,
   and a truncation is detectable (the ["end"] trailer). *)
let serialize (p : payload) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let ints name a =
    line "%s %d %s" name (Array.length a)
      (String.concat " " (Array.to_list (Array.map string_of_int a)))
  in
  let s = p.p_stats in
  line "tagsim-cache %s" version;
  line "cycles %d" s.Stats.cycles;
  line "insns %d" s.Stats.insns;
  ints "kind_cycles" s.Stats.kind_cycles;
  ints "klass_insns" s.Stats.klass_insns;
  line "squashed %d" s.Stats.squashed;
  line "interlocks %d" s.Stats.interlocks;
  line "traps %d" s.Stats.traps;
  line "trap_cycles %d" s.Stats.trap_cycles;
  line "gc %d %d" p.p_gc_collections p.p_gc_bytes_copied;
  line "meta %d %d %d %d" p.p_meta.Program.procedures
    p.p_meta.Program.source_lines p.p_meta.Program.object_words
    p.p_meta.Program.checks_eliminated;
  line "end";
  Buffer.contents b

exception Malformed

let parse (text : string) : payload =
  let lines = String.split_on_char '\n' text in
  let fields l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let expect tag l =
    match fields l with
    | t :: rest when t = tag -> rest
    | _ -> raise Malformed
  in
  let int1 tag l =
    match expect tag l with [ v ] -> int_of_string v | _ -> raise Malformed
  in
  let ints tag l =
    match expect tag l with
    | n :: vs ->
        let n = int_of_string n in
        if List.length vs <> n then raise Malformed;
        Array.of_list (List.map int_of_string vs)
    | [] -> raise Malformed
  in
  match lines with
  | header :: cycles :: insns :: kinds :: klasses :: squashed :: interlocks
    :: traps :: trap_cycles :: gc :: meta :: trailer :: _ ->
      (match expect "tagsim-cache" header with
      | [ v ] when v = version -> ()
      | _ -> raise Malformed);
      if String.trim trailer <> "end" then raise Malformed;
      let gc_c, gc_b =
        match expect "gc" gc with
        | [ c; b ] -> (int_of_string c, int_of_string b)
        | _ -> raise Malformed
      in
      let procedures, source_lines, object_words, checks_eliminated =
        match expect "meta" meta with
        | [ p; s; o; e ] ->
            (int_of_string p, int_of_string s, int_of_string o,
             int_of_string e)
        | _ -> raise Malformed
      in
      {
        p_stats =
          {
            Stats.cycles = int1 "cycles" cycles;
            insns = int1 "insns" insns;
            kind_cycles = ints "kind_cycles" kinds;
            klass_insns = ints "klass_insns" klasses;
            squashed = int1 "squashed" squashed;
            interlocks = int1 "interlocks" interlocks;
            traps = int1 "traps" traps;
            trap_cycles = int1 "trap_cycles" trap_cycles;
          };
        p_gc_collections = gc_c;
        p_gc_bytes_copied = gc_b;
        p_meta =
          { Program.procedures; source_lines; object_words;
            checks_eliminated };
      }
  | _ -> raise Malformed

(* --- Store operations. --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load k =
  if not !enabled_flag then None
  else
    let result =
      (* Any failure mode — missing file, permission error, truncation,
         corruption, stale version — is a miss, never an error. *)
      match read_file (entry_path k) with
      | exception _ -> None
      | text -> ( match parse text with p -> Some p | exception _ -> None)
    in
    (match result with
    | Some _ -> Atomic.incr hit_count
    | None -> Atomic.incr miss_count);
    result

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Sys.mkdir p 0o777 with Sys_error _ -> ()
    end
  in
  go path

let store k (p : payload) =
  if !enabled_flag then
    (* Atomic publish: unique temp name (pid + domain id, so concurrent
       writers never share one), then rename.  A failure anywhere just
       forfeits the cache entry. *)
    try
      mkdir_p !dir_ref;
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" (entry_path k) (Unix.getpid ())
          (Domain.self () :> int)
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (serialize p));
      Sys.rename tmp (entry_path k);
      Atomic.incr write_count
    with _ -> ()

(* Remove every cache entry (and stray temp file) from the store; only
   files this module created — name contains ".entry" — are touched. *)
let wipe () =
  let is_ours name =
    let pat = ".entry" and n = String.length name in
    let m = String.length pat in
    let rec at i = i + m <= n && (String.sub name i m = pat || at (i + 1)) in
    at 0
  in
  match Sys.readdir !dir_ref with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if is_ours name then
            try Sys.remove (Filename.concat !dir_ref name) with _ -> ())
        names
