(* perfbench: the repository's end-to-end benchmark (see README.md for
   the workloads, the metrics and how to run them).

   One invocation runs one workload.  Untraced ([--trace 0]) it times
   the library's top-level entry points and prints the end-to-end
   metrics; traced ([--trace 1]) it runs the same work once untraced and
   once as the span-instrumented re-enactment of {!Replica}, and prints
   the per-layer metrics.  The last line of standard output is the
   result object; every run also prints a header line first. *)

open Tagsim
module Run = Analysis.Run
module Cache = Analysis.Cache
module Pool = Analysis.Pool
module Planner = Analysis.Planner
module Instrument = Analysis.Instrument
module Cross = Fuzz.Cross

let now = Unix.gettimeofday

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let expect = ref "RESULTS.json"
let commit = ref "unknown"
let dirty = ref "unknown"
let probe = ref false
let plan_in = ref ""

let spec =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME cold_plan | warm_plan | fuzz_smoke" );
    ("--seed", Arg.Set_int seed, "N workload seed (the fuzz campaign seed)");
    ("--seconds", Arg.Set_float seconds, "S how long the untraced run measures");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ( "--expect",
      Arg.Set_string expect,
      "FILE expected plan JSON (default RESULTS.json)" );
    ("--commit", Arg.Set_string commit, "SHA commit recorded in the header");
    ("--dirty", Arg.Set_string dirty, "BOOL dirty flag recorded in the header");
    ( "--probe",
      Arg.Set probe,
      " start up, compile and run a one-line program, exit (set-up timing)" );
    ( "--plan-in",
      Arg.Set_string plan_in,
      "DIR run one plan against the stores in DIR, report and exit" );
  ]

(* ---- output ---- *)

(* A metric value prints as an integer when it is a count, otherwise
   with every digit the float carries. *)
type value = Int of int | Float of float

let json_value = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  let field (k, v) = json_string k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1)
    t.tm_mday t.tm_hour t.tm_min t.tm_sec

let print_header ~jobs =
  print_endline
    (json_obj
       [
         ( "header",
           json_obj
             [
               ("host", json_string (Unix.gethostname ()));
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("jobs", string_of_int jobs);
               ("ocaml", json_string Sys.ocaml_version);
               ("commit", json_string !commit);
               ("dirty", json_string !dirty);
               ("workload", json_string !workload);
               ("seed", string_of_int !seed);
               ("trace", string_of_int !trace);
               ("timestamp", json_string (timestamp ()));
             ] );
       ])

(* ---- statistics ---- *)

let sorted l = List.sort compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* ---- private stores ---- *)

(* Every store a run writes lives under this directory of the checkout,
   one subdirectory per process, removed when the run ends however it
   ends; the default [_tagsim_cache/] is never touched. *)
let tmp_root = ".perfbench_tmp"
let proc_dir = Filename.concat tmp_root (string_of_int (Unix.getpid ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir p = try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let with_private_dir f =
  mkdir tmp_root;
  mkdir proc_dir;
  let cleanup () =
    rm_rf proc_dir;
    try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()
  in
  let stop _ = raise Exit in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Fun.protect ~finally:cleanup f

(* Run [wait] on a spawned child; if this process is interrupted
   meanwhile, kill and reap the child first, so that no process outlives
   the run. *)
let reaping pid wait =
  match wait () with
  | v -> v
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      raise e

let drop_memos () =
  Run.clear_cache ();
  Run.reset_frontends ();
  Objcache.clear_memo ()

(* A fresh empty store directory. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Filename.concat proc_dir (string_of_int !n) in
    mkdir dir;
    dir

(* Point all three persistent stores at [dir] and enable them, as
   [tagsim experiments --cache-dir dir] does. *)
let use_stores dir =
  Cache.set_dir (Filename.concat dir "cache");
  Objcache.set_dir (Filename.concat dir "obj");
  Plan.set_dir (Filename.concat dir "plan");
  Cache.set_enabled true;
  Objcache.set_enabled true;
  Plan.set_enabled true

(* Enabled stores in a fresh empty directory, as on a wiped cache, with
   the in-process memos dropped.  Returns the directory. *)
let fresh_stores () =
  let dir = fresh_dir () in
  use_stores dir;
  drop_memos ();
  dir

let stores_off () =
  Cache.set_enabled false;
  Objcache.set_enabled false;
  Plan.set_enabled false;
  drop_memos ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- ops ---- *)

(* One op's outcome: its wall time and whether its output was right.
   An exception is a failed op, never a crash of the benchmark. *)
let timed label f =
  let t0 = now () in
  let ok =
    match f () with
    | true -> true
    | false ->
        Printf.printf "op failed (%s): wrong output\n%!" label;
        false
    | exception (Exit as e) -> raise e
    | exception e ->
        Printf.printf "op failed (%s): %s\n%!" label (Printexc.to_string e);
        false
  in
  (now () -. t0, ok)

(* The full reproduction through the library's entry point, checked
   byte for byte against the committed JSON. *)
let plan_op ~jobs ~expected () =
  Planner.json_string (Planner.plan ~jobs Planner.artifacts) = expected

(* The [--plan-in] process: one plan against the stores in [dir], then
   one line, "<ok> <peak RSS MB>", on standard output. *)
let plan_in_process ~jobs dir =
  use_stores dir;
  let ok =
    match plan_op ~jobs ~expected:(read_file !expect) () with
    | ok -> ok
    | exception e ->
        Printf.eprintf "plan failed: %s\n%!" (Printexc.to_string e);
        false
  in
  Printf.printf "%b %.17g\n%!" ok (peak_rss_mb ())

(* One plan in a fresh process of this benchmark against the stores in
   [dir]: what one [tagsim experiments] invocation does, with no
   in-process state left over from earlier ops.  Returns the wall time
   from spawn to exit, whether the JSON was right, and the process's
   peak RSS. *)
let plan_process dir =
  let t0 = now () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process Sys.executable_name
          [|
            Sys.executable_name; "--plan-in"; dir; "--expect"; !expect;
          |]
          Unix.stdin w Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr r in
  let line, status =
    reaping pid (fun () ->
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        (line, snd (Unix.waitpid [] pid)))
  in
  let wall = now () -. t0 in
  match (status, String.split_on_char ' ' line) with
  | Unix.WEXITED 0, [ ok; rss ] ->
      if ok <> "true" then Printf.printf "op failed (plan): wrong output\n%!";
      (wall, ok = "true", float_of_string rss)
  | _ ->
      Printf.printf "op failed (plan process): %S\n%!" line;
      (wall, false, 0.0)

let matrix = Cross.smoke
let max_size = 80 (* the [tagsim fuzz] default *)

exception Deadline

(* An exception out of the fuzzing library, as a failed verdict. *)
let raised e =
  let scheme, support = List.hd matrix.Cross.m_pairs in
  Cross.Diverge
    { d_scheme = scheme; d_support = support; d_detail = Printexc.to_string e }

(* [Cross.check] of program [index] (from 0) of campaign [seed]; an
   exception is a failed verdict.  A failure names the program, which
   [tagsim fuzz --matrix smoke --seed S --count N] regenerates. *)
let fuzz_check ~seed ~index source =
  let v =
    try Cross.check matrix source with Exit -> raise Exit | e -> raised e
  in
  (match v with
  | Cross.Diverge d ->
      Printf.printf "op failed (fuzz program %d of seed %d): %s\n%!" index seed
        d.Cross.d_detail
  | _ -> ());
  v

let is_diverge = function Cross.Diverge _ -> true | _ -> false

(* Programs after which a fuzz run reads its peak RSS.  The in-process
   object memo grows with every program, so a peak read at the end would
   grow with the host's speed; every 20-second run gets this far. *)
let rss_programs = 200

(* [Fuzz.Driver.campaign] over the smoke matrix, shrinking off, timing
   each program's check through the campaign's injectable [check].  Stops
   after [count] programs or at [deadline]; an exception from the
   generator ends the campaign as one more failed program.  Returns
   per-program (check seconds, end time, verdict), the start time and
   the peak RSS after [rss_programs] programs (at the end, if fewer). *)
let fuzz_campaign ~count ~deadline =
  let seen = ref [] and n = ref 0 and rss = ref 0.0 in
  let t_start = now () in
  let check prog =
    let t0 = now () in
    let v = fuzz_check ~seed:!seed ~index:!n (Fuzz.Gen.render prog) in
    let t1 = now () in
    seen := (t1 -. t0, t1, v) :: !seen;
    incr n;
    if !n = rss_programs then rss := peak_rss_mb ();
    if t1 >= deadline then raise Deadline;
    v
  in
  (match
     Fuzz.Driver.campaign ~check ~shrink:false ~matrix ~seed:!seed ~count
       ~max_size ()
   with
  | _ -> ()
  | exception Deadline -> ()
  | exception (Exit as e) -> raise e
  | exception e ->
      Printf.printf "op failed (fuzz generator): %s\n%!" (Printexc.to_string e);
      seen := (0.0, now (), raised e) :: !seen);
  (List.rev !seen, t_start, if !rss = 0.0 then peak_rss_mb () else !rss)

(* ---- metrics ---- *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * value * string) list;
}

let failures ops = List.length (List.filter (fun (_, ok) -> not ok) ops)
let sum = List.fold_left ( +. ) 0.0

(* Sums of consecutive groups of [size]; a trailing partial group counts
   only when it is the only one. *)
let groups size l =
  let rec go acc cur n = function
    | [] -> if acc = [] && n > 0 then [ cur ] else List.rev acc
    | x :: rest ->
        let cur = cur +. x and n = n + 1 in
        if n = size then go (cur :: acc) 0.0 0 rest else go acc cur n rest
  in
  go [] 0.0 0 l

(* The untraced run's end-to-end metrics.  [rounds] are the wall times
   of the workload's unit of work, [op_s] the individual op times,
   [ops] per [busy_s] the throughput in the workload's op unit, and
   [rss] the peak RSS of the process that ran the ops. *)
let end_to_end ~setup ~rounds ~op_s ~ops ~busy_s ~rss ~attempted ~failed =
  if List.length op_s <= 10 then
    Printf.printf "  op times (s): %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") op_s));
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", Float (median setup), "s");
        ("wall_s", Float (median rounds), "s");
        ("ops_per_s", Float (ratio ops busy_s), "1/s");
        ("op_ms_p50", Float (1000.0 *. median op_s), "ms");
        ("op_ms_p90", Float (1000.0 *. percentile 0.9 op_s), "ms");
        ("peak_rss_mb", Float rss, "MB");
        ( "success_rate",
          Float (ratio (float (attempted - failed)) (float attempted)),
          "ratio" );
      ];
  }

(* Exactness of a per-layer metric: an exact count repeats bit for bit
   across runs of the same code and seed.  Trace formation, plan
   flushes and object-store fills race across worker domains, so those
   counts are exact only with one job. *)
let layer_class ~jobs name unit =
  let racy =
    List.exists
      (fun p -> String.starts_with ~prefix:p name)
      [ "trace."; "plan."; "objcache." ]
  in
  if unit = "s" || unit = "Minsn/s" || String.starts_with ~prefix:"span." name
     || name = "pool.idle_frac"
  then "timing"
  else if racy && jobs > 1 then "count, not exact (jobs > 1)"
  else "exact"

(* The library's own counters and phase timers, read through its public
   accessors. *)
type counters = {
  pipeline : float * float * float; (* compile, simulate, render seconds *)
  phases : Bphase.totals;
  trace : Machine.trace_totals;
  cache : int * int * int; (* hits, misses, writes *)
  objcache : int * int * int;
  plan : int * int * int * int; (* hits, misses, writes, traces loaded *)
  simulations : int;
}

let reset_counters () =
  Cache.reset_counters ();
  Objcache.reset_counters ();
  (* also the backend phases, the trace and the plan counters *)
  Instrument.reset ();
  Run.reset_simulations ();
  Replica.reset ()

let read_counters () =
  {
    pipeline = Instrument.totals ();
    phases = Instrument.backend_totals ();
    trace = Instrument.trace_totals ();
    cache = Cache.counters ();
    objcache = Objcache.counters ();
    plan = Instrument.plan_totals ();
    simulations = Run.simulations ();
  }

(* Did the re-enactment do the library pass's work?  The counts that are
   exact on any number of domains must agree: instructions retired,
   measurement-store traffic and object lookups (hits + misses; which
   of the two a lookup is races across domains). *)
let same_work lib rep =
  let oh, om, _ = lib.objcache and rh, rm, _ = rep.objcache in
  lib.trace.Machine.tt_retired = rep.trace.Machine.tt_retired
  && lib.cache = rep.cache
  && oh + om = rh + rm

(* A traced run's figures that are not library counters. *)
type figures = {
  compile_s : float;
  sim_s : float;
  traced_sim_s : float; (* the traced engine's share of [sim_s] *)
  render_s : float;
  configs : int;
  distinct : int;
  words : int;
  elided : int;
  programs : int;
  rejected : int;
}

(* Per-layer metrics of a traced run: [lib] is the library's counters
   over the untraced pass, [f] the workload's other figures, the spans
   those of the re-enactment. *)
let per_layer ~jobs ~lib ~f ~untraced_wall ~traced_wall ~covered =
  let s = Span.seconds and n name = Int (Span.calls name) in
  let tt = lib.trace and bp = lib.phases in
  let ch, cm, cw = lib.cache in
  let oh, om, ow = lib.objcache in
  let ph, pm, pw, loaded = lib.plan in
  let hit_ratio h m = Float (ratio (float h) (float (h + m))) in
  let insns = tt.Machine.tt_retired in
  let prefixed p = Span.seconds_where (String.starts_with ~prefix:p) in
  let fanout = s "pool.fanout" and busy = s "pool.task" in
  [
    ("sim.s", Float f.sim_s, "s");
    ("sim.insns", Int insns, "count");
    ("sim.mips", Float (ratio (float insns) f.traced_sim_s /. 1e6), "Minsn/s");
    ("trace.entries", Int tt.Machine.tt_entries, "count");
    ("trace.side_exits", Int tt.Machine.tt_side_exits, "count");
    ( "trace.side_exit_ratio",
      Float (ratio (float tt.Machine.tt_side_exits) (float tt.Machine.tt_entries)),
      "ratio" );
    ( "trace.in_trace_ratio",
      Float (ratio (float tt.Machine.tt_in_trace) (float insns)),
      "ratio" );
    ("trace.formed", Int tt.Machine.tt_formed, "count");
    ("run.simulations", Int lib.simulations, "count");
    ("run.distinct_inputs", Int f.distinct, "count");
    ( "run.sim_useful_ratio",
      Float (ratio (float f.distinct) (float lib.simulations)),
      "ratio" );
    ("pool.busy_s", Float busy, "s");
    ( "pool.idle_frac",
      Float (if busy = 0.0 then 0.0 else 1.0 -. (busy /. (float jobs *. fanout))),
      "ratio" );
    ("frontend.s", Float (s "frontend"), "s");
    ("frontend.calls", n "frontend", "count");
    ("compile.s", Float f.compile_s, "s");
    ("compile.calls", n "compile", "count");
    ("compile.lower_s", Float bp.Bphase.lower_s, "s");
    ("compile.opt_s", Float bp.Bphase.opt_s, "s");
    ("compile.select_s", Float bp.Bphase.select_s, "s");
    ("compile.schedule_s", Float bp.Bphase.schedule_s, "s");
    ("compile.assemble_s", Float bp.Bphase.assemble_s, "s");
    ("compile.link_s", Float bp.Bphase.link_s, "s");
    ("compile.codegen_s", Float bp.Bphase.codegen_s, "s");
    ("compile.object_words", Int f.words, "count");
    ("compile.checks_eliminated", Int f.elided, "count");
    ("objcache.hits", Int oh, "count");
    ("objcache.misses", Int om, "count");
    ("objcache.writes", Int ow, "count");
    ("objcache.hit_ratio", hit_ratio oh om, "ratio");
    ("sim.load_s", Float (prefixed "sim.load/"), "s");
    ("sim.exec_s", Float (prefixed "sim.exec/"), "s");
    ("plan.hits", Int ph, "count");
    ("plan.misses", Int pm, "count");
    ("plan.writes", Int pw, "count");
    ("plan.traces_loaded", Int loaded, "count");
    ("cache.probe_s", Float (s "cache.probe"), "s");
    ("cache.write_s", Float (s "cache.write"), "s");
    ("cache.hits", Int ch, "count");
    ("cache.misses", Int cm, "count");
    ("cache.writes", Int cw, "count");
    ("cache.hit_ratio", hit_ratio ch cm, "ratio");
    ("planner.configs", Int f.configs, "count");
    ("planner.union_s", Float (s "planner.union"), "s");
    ("render.s", Float f.render_s, "s");
    ("oracle.s", Float (s "oracle"), "s");
    ("fuzz.gen_s", Float (s "gen"), "s");
    ("fuzz.programs", Int f.programs, "count");
    ("fuzz.rejected", Int f.rejected, "count");
    ("span.overhead_frac", Float ((traced_wall /. untraced_wall) -. 1.0), "ratio");
    ("span.unattributed_frac", Float (1.0 -. ratio covered traced_wall), "ratio");
  ]

(* ---- workloads ---- *)

let setup_reps = 31
let warm_seeds = 3
let warm_round = 100 (* warm plans per wall_s round *)
let fuzz_round = 10 (* programs per wall_s round *)

(* The traced runs do fixed work, so their exact counts repeat. *)
let traced_warm_ops = 200
let traced_fuzz_programs = 120

let repeat n f = List.init n (fun _ -> f ())

(* Repeat [op] until the run has measured for [--seconds]. *)
let until_deadline op =
  let t_end = now () +. !seconds in
  let rec loop acc =
    if acc <> [] && now () >= t_end then List.rev acc else loop (op () :: acc)
  in
  loop []

(* The distinct configurations of the full plan (280 at the seed), as
   the plan runs them. *)
let plan_configs () =
  let keys = Hashtbl.create 512 in
  List.concat_map
    (fun a -> a.Analysis.Spec.a_configs (Run.all_entries ()))
    Planner.artifacts
  |> List.filter (fun c ->
         let k = Run.matrix_key c in
         (not (Hashtbl.mem keys k)) && (Hashtbl.replace keys k (); true))
  |> List.map (fun c -> { c with Run.c_engine = `Traced })

(* One start of this benchmark's process up to a library that has
   compiled and run a program ([--probe]): the runtime, module and
   first-use initialisation every [tagsim] invocation pays before its
   first op, which no in-process timer sees.  Part of every workload's
   set-up. *)
let process_start () =
  let t0 = now () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--probe" |]
          Unix.stdin null null)
  in
  (match reaping pid (fun () -> Unix.waitpid [] pid) with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "probe process failed");
  now () -. t0

(* Set-up shared by the plan workloads: a process start, the expected
   output, the configuration count and fresh enabled stores.  Returns
   the set-up time, the fresh store directory and both values. *)
let plan_setup () =
  let t0 = now () in
  ignore (process_start ());
  let expected = read_file !expect in
  let configs = List.length (plan_configs ()) in
  let dir = fresh_stores () in
  (now () -. t0, dir, expected, configs)

(* Untimed, before a timed region: start it from a compacted heap, as a
   fresh process would, not from the garbage of whatever ran before
   (a seeding plan leaves hundreds of MB to collect). *)
let settle () = Gc.compact ()

(* A cold plan in fresh stores, in this process (the traced runs). *)
let cold_op ~jobs ~expected () =
  let dir = fresh_stores () in
  settle ();
  let op = timed "cold plan" (plan_op ~jobs ~expected) in
  rm_rf dir;
  op

let warm_op ~jobs ~expected () =
  drop_memos ();
  timed "warm plan" (plan_op ~jobs ~expected)

(* Seed a warm store: a cold plan process into a fresh directory, timed
   as set-up.  Returns the time, the directory, the expected output and
   whether the seeding plan was right. *)
let warm_setup () =
  let dt, dir, expected, _ = plan_setup () in
  let t, ok, _ = plan_process dir in
  (dt +. t, dir, expected, ok)

(* Ops of the plan workloads, each a [plan_process]. *)
let process_ops ~setup ~rounds ~configs ~attempted ~failed ops =
  let times = List.map (fun (t, _, _) -> t) ops in
  end_to_end ~setup ~rounds:(rounds times) ~op_s:times
    ~ops:(float (configs * List.length ops))
    ~busy_s:(sum times)
    ~rss:(median (List.map (fun (_, _, rss) -> rss) ops))
    ~attempted:(attempted + List.length ops)
    ~failed:(failed + List.length (List.filter (fun (_, ok, _) -> not ok) ops))

let cold_untraced () =
  let setup = repeat setup_reps plan_setup in
  List.iter (fun (_, dir, _, _) -> rm_rf dir) setup;
  let _, _, _, configs = List.hd setup in
  until_deadline (fun () ->
      let dir = fresh_dir () in
      let op = plan_process dir in
      rm_rf dir;
      op)
  |> process_ops
       ~setup:(List.map (fun (t, _, _, _) -> t) setup)
       ~rounds:Fun.id ~configs ~attempted:0 ~failed:0

let warm_untraced () =
  let seeds = repeat warm_seeds warm_setup in
  let _, dir, _, _ = List.nth seeds (warm_seeds - 1) in
  until_deadline (fun () -> plan_process dir)
  |> process_ops
       ~setup:(List.map (fun (t, _, _, _) -> t) seeds)
       ~rounds:(groups warm_round) ~configs:1 ~attempted:warm_seeds
       ~failed:(List.length (List.filter (fun (_, _, _, ok) -> not ok) seeds))

(* Fuzz set-up: a process start, stores off, then one check of a fixed
   warm-up program (the first program of seed 0, whatever the run's
   seed), so that the campaign starts with the library's lazily built
   state in place.  Returns the time and whether the check agreed. *)
let fuzz_setup () =
  let t0 = now () in
  ignore (process_start ());
  stores_off ();
  let warm_up = Fuzz.Gen.program (Fuzz.Rng.create 0) ~max_size in
  let v = fuzz_check ~seed:0 ~index:0 (Fuzz.Gen.render warm_up) in
  (now () -. t0, not (is_diverge v))

let fuzz_untraced () =
  let setup = repeat setup_reps fuzz_setup in
  drop_memos ();
  settle ();
  let seen, t_start, rss =
    fuzz_campaign ~count:max_int ~deadline:(now () +. !seconds)
  in
  let _, gaps =
    List.fold_left_map (fun prev (_, t1, _) -> (t1, t1 -. prev)) t_start seen
  in
  let times = List.map (fun (t, _, _) -> t) seen in
  let n = List.length seen in
  end_to_end ~setup:(List.map fst setup) ~rounds:(groups fuzz_round gaps)
    ~op_s:times ~ops:(float n) ~busy_s:(sum gaps) ~rss
    ~attempted:(n + setup_reps)
    ~failed:
      (failures setup + List.length (List.filter (fun (_, _, v) -> is_diverge v) seen))

(* Traced runs: the same work untraced, then re-enacted under spans.
   [covered] is read before [Span.stop]; the walls exclude the memo
   drops between ops, which no span covers. *)
let traced ~jobs ~lib ~f ~untraced_wall ~traced_wall ~attempted ~failed =
  let covered = Span.root_seconds () in
  Span.stop ();
  Printf.printf "  %-22s %8s %14s %14s\n" "span" "calls" "total_s" "self_s";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "  %-22s %8d %14.6f %14.6f\n" name n total self)
    (Span.table ());
  {
    attempted;
    failed;
    metrics = per_layer ~jobs ~lib ~f ~untraced_wall ~traced_wall ~covered;
  }

(* The re-enactment did other work than the library: its split is not
   the library's, so the run counts one more failed op. *)
let same_work_op ~what agree =
  if not agree then
    Printf.printf "op failed (traced pass): the re-enactment did other work than %s\n%!"
      what;
  (0.0, agree)

let replica_op ~jobs ~expected counts () =
  drop_memos ();
  timed "traced plan" (fun () ->
      let rendered, c =
        Replica.plan ~jobs ~entries:(Run.all_entries ()) Planner.artifacts
      in
      counts := c :: !counts;
      Span.with_ "render.json" (fun () -> Planner.json_string rendered) = expected)

(* A plan workload's traced run: the [untraced] ops first, with the
   library's counters reset before them and read after them, then
   [traced_ops] rerunning them under spans.  Object words and eliminated
   checks are summed over the plan's configurations as the library's
   measurements record them, from the memo the last untraced op left. *)
let plan_traced ~jobs ~expected ~untraced ~traced_ops =
  settle ();
  reset_counters ();
  let untraced = untraced () in
  let lib = read_counters () in
  let configs = plan_configs () in
  let words, elided =
    List.fold_left
      (fun (w, e) c ->
        let meta = (Run.run_config c).Run.meta in
        (w + meta.Program.object_words, e + meta.Program.checks_eliminated))
      (0, 0) configs
  in
  let memo_only = Run.simulations () = lib.simulations in
  settle ();
  reset_counters ();
  let counts = ref [] in
  Span.start ();
  let traced_ops = traced_ops (replica_op ~jobs ~expected counts) in
  let rep = read_counters () in
  let total field = List.fold_left (fun n c -> n + field c) 0 !counts in
  let sims = total (fun c -> c.Replica.simulations) in
  let gate =
    same_work_op ~what:"Planner.plan"
      (memo_only && same_work lib rep && sims = lib.simulations
      && Span.calls "compile" = lib.simulations
      && List.for_all (fun c -> c.Replica.configs = List.length configs) !counts)
  in
  let all = untraced @ traced_ops @ [ gate ] in
  let compile_s, sim_s, render_s = lib.pipeline in
  let f =
    {
      compile_s;
      sim_s;
      traced_sim_s = sim_s;
      render_s;
      configs = List.length configs;
      distinct = total (fun c -> c.Replica.distinct_inputs);
      words;
      elided;
      programs = 0;
      rejected = 0;
    }
  in
  traced ~jobs ~lib ~f
    ~untraced_wall:(sum (List.map fst untraced))
    ~traced_wall:(sum (List.map fst traced_ops))
    ~attempted:(List.length all) ~failed:(failures all)

let cold_traced ~jobs =
  let _, dir, expected, _ = plan_setup () in
  rm_rf dir;
  plan_traced ~jobs ~expected
    ~untraced:(fun () -> [ cold_op ~jobs ~expected () ])
    ~traced_ops:(fun op ->
      let dir = fresh_stores () in
      let r = op () in
      rm_rf dir;
      [ r ])

let warm_traced ~jobs =
  let _, dir, expected, ok = warm_setup () in
  use_stores dir;
  let seeding = (0.0, ok) in
  let r =
    plan_traced ~jobs ~expected
      ~untraced:(fun () -> repeat traced_warm_ops (warm_op ~jobs ~expected))
      ~traced_ops:(fun op -> repeat traced_warm_ops op)
  in
  { r with attempted = r.attempted + 1; failed = r.failed + failures [ seeding ] }

(* The fuzz workload's traced run: the campaign untraced, then the same
   programs' [Cross.check] calls re-enacted under spans.  Verdicts are
   the campaign's.  No library timer covers [Cross.check], so compile
   and simulation seconds are span totals. *)
let fuzz_traced () =
  let _, warm_ok = fuzz_setup () in
  drop_memos ();
  settle ();
  reset_counters ();
  let seen, t_start, _ =
    fuzz_campaign ~count:traced_fuzz_programs ~deadline:Float.infinity
  in
  let lib = read_counters () in
  let verdicts = List.map (fun (_, _, v) -> v) seen in
  let untraced_wall =
    List.fold_left (fun _ (_, t1, _) -> t1) t_start seen -. t_start
  in
  drop_memos ();
  settle ();
  reset_counters ();
  Span.start ();
  let t0 = now () in
  let rng = Fuzz.Rng.create !seed in
  let replayed =
    match
      List.iter
        (fun _ ->
          let prog = Span.with_ "gen" (fun () -> Fuzz.Gen.program rng ~max_size) in
          Span.with_ "check" (fun () -> Replica.check matrix (Fuzz.Gen.render prog)))
        verdicts
    with
    | () -> true
    | exception (Exit as e) -> raise e
    | exception e ->
        Printf.printf "op failed (traced program): %s\n%!" (Printexc.to_string e);
        false
  in
  let traced_wall = now () -. t0 in
  let rep = read_counters () in
  let gate =
    same_work_op ~what:"Cross.check" (replayed && same_work lib rep)
  in
  let ops =
    ((0.0, warm_ok) :: List.map (fun v -> (0.0, not (is_diverge v))) verdicts)
    @ [ gate ]
  in
  let rejected =
    List.length
      (List.filter (function Cross.Rejected -> true | _ -> false) verdicts)
  in
  let load_s = Span.seconds_where (String.starts_with ~prefix:"sim.load/") in
  let exec_s = Span.seconds_where (String.starts_with ~prefix:"sim.exec/") in
  let f =
    {
      compile_s = Span.seconds "compile";
      sim_s = load_s +. exec_s;
      traced_sim_s = Span.seconds "sim.load/traced" +. Span.seconds "sim.exec/traced";
      render_s = 0.0;
      configs = 0;
      distinct = 0;
      words = !Replica.object_words;
      elided = !Replica.checks_eliminated;
      programs = List.length verdicts;
      rejected;
    }
  in
  traced ~jobs:1 ~lib ~f ~untraced_wall ~traced_wall ~attempted:(List.length ops)
    ~failed:(failures ops)

(* ---- entry point ---- *)

let print_result r =
  let correct = r.failed = 0 && r.attempted > 0 in
  if not correct then
    Printf.printf "INVALID: %d of %d ops failed; these figures are not a speed\n"
      r.failed r.attempted;
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    json_obj
                      [ ("value", json_value v); ("unit", json_string unit) ] ))
                r.metrics) );
       ])

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* Plans use every core, as [tagsim experiments --jobs 0] does; the
     fuzz campaign runs on the calling domain alone. *)
  let jobs = if !workload = "fuzz_smoke" then 1 else Pool.recommended () in
  if !probe then begin
    ignore
      (Program.run_source ~scheme:Scheme.high5 ~support:Support.software
         "(de main () (plus2 1 2))");
    exit 0
  end;
  if !plan_in <> "" then begin
    plan_in_process ~jobs !plan_in;
    exit 0
  end;
  let run =
    match (!workload, !trace) with
    | "cold_plan", 0 -> cold_untraced
    | "warm_plan", 0 -> warm_untraced
    | "fuzz_smoke", 0 -> fuzz_untraced
    | "cold_plan", 1 -> fun () -> cold_traced ~jobs
    | "warm_plan", 1 -> fun () -> warm_traced ~jobs
    | "fuzz_smoke", 1 -> fuzz_traced
    | w, t ->
        Printf.eprintf "unknown workload %S or trace level %d\n" w t;
        exit 2
  in
  if String.ends_with ~suffix:"_plan" !workload && not (Sys.file_exists !expect)
  then begin
    Printf.eprintf "expected output %s not found (run from the repository root)\n"
      !expect;
    exit 2
  end;
  print_header ~jobs;
  let r =
    try with_private_dir run
    with Exit ->
      prerr_endline "interrupted";
      exit 1
  in
  let classes name unit = if !trace = 1 then layer_class ~jobs name unit else "" in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-26s %22s %-8s %s\n" name (json_value v) unit
        (classes name unit))
    r.metrics;
  if !trace = 1 then
    print_endline
      (json_obj
         [
           ( "classes",
             json_obj
               (List.map
                  (fun (name, _, unit) -> (name, json_string (classes name unit)))
                  r.metrics) );
         ]);
  print_result r
