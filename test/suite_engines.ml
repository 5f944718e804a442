(* Differential engine testing.  The predecoded closure engine
   (Tagsim.Predecode), the basic-block fusion engine (Tagsim.Fuse) and
   the superblock trace engine (Tagsim.Trace) must be observationally
   identical to the reference interpreter: every registry benchmark is
   compiled once per (scheme x named support) configuration and
   simulated under all four engines, and the result value, abort
   status, GC counters and every Stats counter must match exactly.
   Targeted raw images then exercise the dynamic-exit paths, where the
   pre-summed block and trace statistics must be unwound:
   generic-arithmetic traps with a [rett] resume, squashing branches,
   fuel exhaustion inside a block or a trace, checked-load type traps
   and division by zero mid-block, load-use interlocks resolved
   statically or probed at a block boundary, hot-loop trace promotion,
   and every superblock side exit (branch misprediction, squash
   annulment both ways, indirect-jump guard failure, traps and fuel
   exhaustion mid-trace).  The parallel measurement pool must likewise
   be oblivious to the worker count. *)

module P = Tagsim.Program
module Stats = Tagsim.Stats
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support
module Run = Tagsim.Analysis.Run
module B = Tagsim.Benchmarks
module Machine = Tagsim.Machine
module Predecode = Tagsim.Predecode
module Fuse = Tagsim.Fuse
module Trace = Tagsim.Trace
module Insn = Tagsim.Insn
module Reg = Tagsim.Reg
module Buf = Tagsim.Buf
module Sched = Tagsim.Sched
module Image = Tagsim.Image

let check_result name (a : P.result) (b : P.result) =
  Alcotest.(check (option string))
    (name ^ ": abort") a.P.abort b.P.abort;
  Alcotest.(check (option string))
    (name ^ ": value")
    (Option.map P.hval_to_string a.P.value)
    (Option.map P.hval_to_string b.P.value);
  Alcotest.(check int)
    (name ^ ": cycles")
    (Stats.total a.P.stats) (Stats.total b.P.stats);
  Alcotest.(check int)
    (name ^ ": insns")
    (Stats.executed_insns a.P.stats)
    (Stats.executed_insns b.P.stats);
  Alcotest.(check bool)
    (name ^ ": all stats counters") true
    (Stats.equal a.P.stats b.P.stats);
  Alcotest.(check int)
    (name ^ ": gc collections") a.P.gc_collections b.P.gc_collections;
  Alcotest.(check int)
    (name ^ ": gc bytes copied") a.P.gc_bytes_copied b.P.gc_bytes_copied

(* The full configuration matrix: every tag scheme under every named
   hardware support row, with run-time checking enabled (checking emits
   the interesting tag sequences and trap paths).  The front end is
   analysed once per program and shared across the matrix. *)
let test_engines_agree (entry : B.entry) () =
  let fe = P.analyze entry.B.source in
  List.iter
    (fun (scheme : Scheme.t) ->
      List.iter
        (fun (sname, support) ->
          let support = Support.with_checking support in
          let cname = scheme.Scheme.name ^ "/" ^ sname in
          let program =
            P.compile_frontend ~sizes:entry.B.sizes ~scheme ~support fe
          in
          let reference = P.run ~engine:`Reference program in
          let predecoded = P.run ~engine:`Predecoded program in
          let fused = P.run ~engine:`Fused program in
          let traced = P.run ~engine:`Traced program in
          (* A second run reuses the program's tstate, so it starts with
             the first run's traces installed before its first dispatch. *)
          let retraced = P.run ~engine:`Traced program in
          let nm leg = entry.B.name ^ " " ^ cname ^ " " ^ leg in
          check_result (nm "pre") reference predecoded;
          check_result (nm "fus") reference fused;
          check_result (nm "tra") reference traced;
          check_result (nm "tra2") reference retraced;
          Alcotest.(check (option string))
            (nm "" ^ ": no abort") None reference.P.abort)
        Support.all_named)
    Scheme.all

(* --- Targeted raw images: the dynamic exits of the fused and traced
   engines. --- *)

let scheme = Scheme.high5
let hw = Scheme.machine_hw ~mem_bytes:(1 lsl 20) scheme

(* Assemble [build b] without the slot scheduler (slots are laid out by
   hand) and run it under one engine. *)
let assemble ?(sched = Sched.off) build =
  let b = Buf.create () in
  build b;
  Image.assemble ~sched b

let run_raw ?fuel ?threshold ?(setup = fun _ -> ()) image engine =
  let m = Machine.create ?fuel ~engine ~hw image in
  (match engine with
  | `Reference -> ()
  | `Predecoded -> Predecode.attach m
  | `Fused -> Fuse.attach m
  | `Traced -> Trace.attach ?threshold m);
  Machine.set_reg m Reg.rmask scheme.Scheme.data_mask;
  setup m;
  let outcome =
    try `Done (Machine.run m) with Machine.Out_of_fuel -> `Fuel
  in
  (outcome, Machine.stats m)

let outcome_str = function
  | `Fuel -> "out-of-fuel"
  | `Done (Machine.Halted v) -> Printf.sprintf "halted %d" v
  | `Done (Machine.Aborted c) -> Printf.sprintf "aborted %d" c

(* Run under all four engines; reference is ground truth.  [threshold]
   only lowers the traced engine's promotion threshold so short unit
   loops get hot. *)
let check_four name ?fuel ?threshold ?setup image =
  let ro, rs = run_raw ?fuel ?setup image `Reference in
  let po, ps = run_raw ?fuel ?setup image `Predecoded in
  let fo, fs = run_raw ?fuel ?setup image `Fused in
  let to_, ts = run_raw ?fuel ?threshold ?setup image `Traced in
  Alcotest.(check string)
    (name ^ ": predecoded outcome") (outcome_str ro) (outcome_str po);
  Alcotest.(check string)
    (name ^ ": fused outcome") (outcome_str ro) (outcome_str fo);
  Alcotest.(check string)
    (name ^ ": traced outcome") (outcome_str ro) (outcome_str to_);
  Alcotest.(check bool)
    (name ^ ": predecoded stats") true (Stats.equal rs ps);
  Alcotest.(check bool) (name ^ ": fused stats") true (Stats.equal rs fs);
  Alcotest.(check bool) (name ^ ": traced stats") true (Stats.equal rs ts);
  (ro, rs)

let expect_outcome name expected (outcome, _) =
  Alcotest.(check string) (name ^ ": outcome") expected (outcome_str outcome)

let add = Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1)

(* A generic-arithmetic trap in the middle of a straight line, with a
   [settd]-patching handler and a [rett] resume: the trapping block must
   keep its executed prefix's statistics (including the trap's own issue
   cycle), charge the trap overhead, and resume at [epc] — which the
   fuser guarantees is a block leader. *)
let test_garith_rett () =
  let int_item n = Scheme.encode_int scheme n in
  let pair_item = Scheme.encode_ptr scheme Scheme.Pair (256 * 8) in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, int_item 5));
        Buf.emit b (Insn.Li (Reg.t1, pair_item));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t2, Reg.t0, Reg.t0));
        Buf.emit b (Insn.Add_gen (Reg.t3, Reg.t0, Reg.t1));
        (* resume point: the handler patched t3 to 42 *)
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t3, Reg.t3, 1));
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t3));
        Buf.emit b Insn.Halt;
        Buf.label b "gadd";
        Buf.emit b (Insn.Li (Reg.k0, 42));
        Buf.emit b (Insn.Settd Reg.k0);
        Buf.emit b Insn.Rett)
  in
  let setup m =
    Machine.set_gen_handlers m
      ~add:(Image.code_address image "gadd")
      ~sub:(Image.code_address image "gadd")
  in
  let r = check_four "garith-rett" ~setup image in
  expect_outcome "garith-rett" "halted 43" r;
  Alcotest.(check int) "garith-rett: one trap" 1 (snd r).Stats.traps

(* Squashing branches, both ways.  The assembler inserts the two delay
   slots itself (no-ops under [Sched.off]): a taken squashing branch
   executes its slots, a not-taken one annuls them — two cycles charged
   to the branch's slot, no instructions retired. *)
let test_squash_branch () =
  let branch cond target =
    Insn.B
      ( { Insn.cond; rs = Reg.t0; rt = Reg.t1; squash = true;
          hint = Insn.No_hint },
        target )
  in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 1));
        Buf.emit b (Insn.Li (Reg.t1, 1));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        (* taken squashing branch: both (no-op) slots execute *)
        Buf.emit b (branch Insn.Eq "l1");
        Buf.label b "l1";
        (* not-taken squashing branch: both slots annulled *)
        Buf.emit b (branch Insn.Ne "bad");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt;
        Buf.label b "bad";
        Buf.emit b (Insn.Trap 1))
  in
  let r = check_four "squash-branch" image in
  expect_outcome "squash-branch" "halted 0" r;
  Alcotest.(check int) "squash-branch: two squashed slots" 2
    (snd r).Stats.squashed;
  (* 3 li + taken branch + its 2 slot no-ops + not-taken branch + mv +
     halt; the annulled slots retire nothing *)
  Alcotest.(check int) "squash-branch: nine retirements" 9
    (Stats.executed_insns (snd r))

(* Fuel exhaustion in the middle of what fusion makes a single block:
   the fused engine must stop at the identical retirement count (it
   falls back to per-instruction execution when the remaining fuel does
   not cover the block). *)
let test_fuel_exhaustion () =
  let image =
    assemble (fun b ->
        for _ = 1 to 10 do
          Buf.emit b add
        done;
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "fuel-mid-block" ~fuel:5 image in
  expect_outcome "fuel-mid-block" "out-of-fuel" r;
  Alcotest.(check int) "fuel-mid-block: five retirements" 5
    (Stats.executed_insns (snd r));
  (* one fuel step past the block's end: the halt still fires *)
  expect_outcome "fuel-after-block" "halted 10"
    (check_four "fuel-after-block" ~fuel:12 image)

(* A checked load whose address operand carries the wrong tag aborts the
   block after its executed prefix; the pre-summed statistics of the
   unexecuted suffix must be unwound (the load's own issue cycle
   stands — the reference charges before it traps). *)
let test_checked_load_trap () =
  let pair_tag = scheme.Scheme.tag Scheme.Pair in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, Scheme.encode_int scheme 7));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 5));
        Buf.emit b (Insn.Ld (Insn.Checked pair_tag, Reg.t1, Reg.t0, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 100));
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "checked-load-trap" image in
  expect_outcome "checked-load-trap"
    (Printf.sprintf "aborted %d" Machine.err_type)
    r;
  Alcotest.(check int) "checked-load-trap: four retirements" 4
    (Stats.executed_insns (snd r))

(* Division by zero mid-block: the divide retires (it is counted) but
   its cycles are never charged, and the block suffix is unwound. *)
let test_div_zero () =
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 10));
        Buf.emit b (Insn.Li (Reg.t1, 0));
        Buf.emit b (Insn.Alu (Insn.Div, Reg.t2, Reg.t0, Reg.t1));
        Buf.emit b add;
        Buf.emit b Insn.Halt)
  in
  let r = check_four "div-zero" image in
  expect_outcome "div-zero" (Printf.sprintf "aborted %d" Machine.err_div0) r;
  Alcotest.(check int) "div-zero: three retirements" 3
    (Stats.executed_insns (snd r))

(* Load-use interlocks: resolved statically between adjacent in-block
   instructions, probed dynamically at a block boundary (here the load
   sits in the second delay slot, so the interlock lands on the first
   instruction of the jump's target block). *)
let test_interlocks () =
  let in_block =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 7));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.emit b (Insn.Alu (Insn.Add, Reg.v0, Reg.t2, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "interlock-in-block" in_block in
  expect_outcome "interlock-in-block" "halted 14" r;
  Alcotest.(check int) "interlock-in-block: one interlock" 1
    (snd r).Stats.interlocks;
  (* A code label is a block leader, so it splits the straight line
     between the load and its use: the interlock crosses the block
     boundary and must be caught by the fused engine's dynamic
     block-entry probe. *)
  let across_blocks =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 9));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.label b "l";
        Buf.emit b (Insn.Alu (Insn.Add, Reg.v0, Reg.t2, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "interlock-across-blocks" across_blocks in
  expect_outcome "interlock-across-blocks" "halted 18" r;
  Alcotest.(check int) "interlock-across-blocks: one interlock" 1
    (snd r).Stats.interlocks

(* Attaching an engine twice must not recompile: the closure and block
   arrays stay physically the same (the structural [= [||]] staleness
   test recompiled empty-code machines forever). *)
let test_attach_idempotent () =
  let image = assemble (fun b -> Buf.emit b Insn.Halt) in
  let m = Machine.create ~engine:`Fused ~hw image in
  Fuse.attach m;
  let exec = m.Machine.exec and blocks = m.Machine.blocks in
  Fuse.attach m;
  Predecode.attach m;
  Alcotest.(check bool) "exec array reused" true (exec == m.Machine.exec);
  Alcotest.(check bool) "block array reused" true (blocks == m.Machine.blocks)

(* --- Superblock traces: promotion, side exits, exactness. --- *)

let branch ?(squash = false) cond rs rt target =
  Insn.B ({ Insn.cond; rs; rt; squash; hint = Insn.No_hint }, target)

(* A two-block counted loop (traces need at least two segments, so the
   body is split by a jump): [t2] counts iterations, the back branch
   falls through after [n] of them. *)
let counted_loop ?squash n =
  assemble (fun b ->
      Buf.emit b (Insn.Li (Reg.t0, 0));
      Buf.emit b (Insn.Li (Reg.t1, n));
      Buf.emit b (Insn.Li (Reg.t2, 0));
      Buf.label b "loop";
      Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
      Buf.emit b (Insn.J "mid");
      Buf.label b "mid";
      Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
      Buf.emit b (branch ?squash Insn.Ne Reg.t0 Reg.t1 "loop");
      Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
      Buf.emit b Insn.Halt)

let trace_count (m : Machine.t) =
  match m.Machine.tstate with
  | None -> 0
  | Some ts ->
      Array.fold_left
        (fun n t -> if Option.is_some t then n + 1 else n)
        0 ts.Machine.ts_traces

(* Hot-threshold promotion: a loop executing under the threshold stays
   in tier 1 (no trace), over it gets a superblock — and either way the
   statistics match the reference exactly. *)
let test_trace_promotion () =
  let image = counted_loop 50 in
  let run_and_count threshold =
    let m = Machine.create ~engine:`Traced ~hw image in
    Trace.attach ~threshold m;
    Machine.set_reg m Reg.rmask scheme.Scheme.data_mask;
    ignore (Machine.run m);
    trace_count m
  in
  Alcotest.(check int) "cold loop: no trace" 0
    (run_and_count 1_000_000);
  Alcotest.(check bool) "hot loop: trace formed" true (run_and_count 4 > 0);
  let tt0 = Machine.trace_counters () in
  let r = check_four "trace-promotion" ~threshold:4 image in
  expect_outcome "trace-promotion" "halted 50" r;
  let tt1 = Machine.trace_counters () in
  Alcotest.(check bool) "trace counters advanced" true
    (tt1.Machine.tt_formed > tt0.Machine.tt_formed
    && tt1.Machine.tt_entries > tt0.Machine.tt_entries
    && tt1.Machine.tt_in_trace > tt0.Machine.tt_in_trace)

(* The loop's final iteration mispredicts the back branch: a side exit
   must roll the pre-summed trace statistics back to the exact per-block
   deltas. *)
let test_trace_side_exit () =
  let tt0 = Machine.trace_counters () in
  let r = check_four "trace-side-exit" ~threshold:4 (counted_loop 37) in
  expect_outcome "trace-side-exit" "halted 37" r;
  let tt1 = Machine.trace_counters () in
  Alcotest.(check bool) "side exit taken" true
    (tt1.Machine.tt_side_exits > tt0.Machine.tt_side_exits)

(* A squashing back branch: the trace pre-sums the slots of the
   expected taken path; the final not-taken iteration side-exits and
   must replace them with the annul accounting (2 squashed cycles). *)
let test_trace_squash_taken () =
  let r =
    check_four "trace-squash-taken" ~threshold:4
      (counted_loop ~squash:true 29)
  in
  expect_outcome "trace-squash-taken" "halted 29" r;
  Alcotest.(check int) "trace-squash-taken: one annulled pair" 2
    (snd r).Stats.squashed

(* The opposite polarity: a squashing exit branch that is almost never
   taken.  The trace pre-sums the annul accounting of the expected
   fall-through; the final taken iteration must undo it, charge the
   slots as executed, and run them on the way out. *)
let test_trace_squash_fall () =
  let n = 23 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch ~squash:true Insn.Eq Reg.t0 Reg.t1 "done");
        Buf.emit b (Insn.J "loop");
        Buf.label b "done";
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "trace-squash-fall" ~threshold:4 image in
  expect_outcome "trace-squash-fall" (Printf.sprintf "halted %d" n) r;
  (* every not-taken iteration annuls the two slots *)
  Alcotest.(check int) "trace-squash-fall: annulled pairs" (2 * (n - 1))
    (snd r).Stats.squashed

(* An indirect jump whose target is loaded from a dispatch table: the
   trace guards on the dominant target, and the final iteration (whose
   table entry points at the exit) must fail the guard and side-exit
   with exact rollback. *)
let test_trace_indirect () =
  let n = 31 in
  let table = 2048 in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t2, 0));
        Buf.emit b (Insn.Li (Reg.t4, table));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t2, Reg.t2, 1));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t3, Reg.t4, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t4, Reg.t4, 4));
        Buf.emit b (Insn.Jr Reg.t3);
        Buf.label b "done";
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t2));
        Buf.emit b Insn.Halt)
  in
  let setup m =
    let loop = Image.code_address image "loop" in
    let done_ = Image.code_address image "done" in
    for i = 0 to n - 2 do
      Machine.poke m (table + (4 * i)) loop
    done;
    Machine.poke m (table + (4 * (n - 1))) done_
  in
  let r = check_four "trace-indirect" ~threshold:4 ~setup image in
  expect_outcome "trace-indirect" (Printf.sprintf "halted %d" n) r

(* Division by zero on a late iteration: the abort lands mid-trace and
   the unexecuted suffix (including the divide's own cycles) must be
   unwound. *)
let test_trace_div_zero () =
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, 20));
        Buf.emit b (Insn.Li (Reg.t6, 100));
        Buf.label b "loop";
        Buf.emit b (Insn.Alu (Insn.Sub, Reg.t4, Reg.t1, Reg.t0));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        (* t4 = 20 - t0: reaches zero at t0 = 20, well before the
           (never-satisfied) loop bound of 100 *)
        Buf.emit b (Insn.Alu (Insn.Div, Reg.t5, Reg.t1, Reg.t4));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t6 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt)
  in
  let r = check_four "trace-div-zero" ~threshold:4 image in
  expect_outcome "trace-div-zero"
    (Printf.sprintf "aborted %d" Machine.err_div0)
    r

(* A generic-arithmetic trap on the last iteration, with a settd/rett
   handler: the trap side-exits the trace, the handler patches the
   result, and execution resumes at [epc] mid-loop. *)
let test_trace_garith () =
  let n = 27 in
  let table = 2048 in
  let int_item k = Scheme.encode_int scheme k in
  let pair_item = Scheme.encode_ptr scheme Scheme.Pair (256 * 8) in
  let image =
    assemble (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 0));
        Buf.emit b (Insn.Li (Reg.t1, n));
        Buf.emit b (Insn.Li (Reg.t4, table));
        Buf.emit b (Insn.Li (Reg.t6, int_item 1));
        Buf.label b "loop";
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t3, Reg.t4, 0));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t4, Reg.t4, 4));
        Buf.emit b (Insn.J "mid");
        Buf.label b "mid";
        Buf.emit b (Insn.Add_gen (Reg.t5, Reg.t3, Reg.t6));
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t0, Reg.t0, 1));
        Buf.emit b (branch Insn.Ne Reg.t0 Reg.t1 "loop");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t0));
        Buf.emit b Insn.Halt;
        Buf.label b "gadd";
        Buf.emit b (Insn.Li (Reg.k0, int_item 42));
        Buf.emit b (Insn.Settd Reg.k0);
        Buf.emit b Insn.Rett)
  in
  let setup m =
    for i = 0 to n - 2 do
      Machine.poke m (table + (4 * i)) (int_item i)
    done;
    Machine.poke m (table + (4 * (n - 1))) pair_item;
    Machine.set_gen_handlers m
      ~add:(Image.code_address image "gadd")
      ~sub:(Image.code_address image "gadd")
  in
  let r = check_four "trace-garith" ~threshold:4 ~setup image in
  expect_outcome "trace-garith" (Printf.sprintf "halted %d" n) r;
  Alcotest.(check int) "trace-garith: one trap" 1 (snd r).Stats.traps

(* A load scheduled into the second delay slot of a hot back branch:
   inside the trace the interlock on the next segment's first
   instruction must be resolved statically across the junction (the
   reference probes it dynamically at every block entry). *)
let test_trace_cross_interlock () =
  let n = 25 in
  let hoist_only =
    { Sched.hoist = true; fill_unlikely = false; squash_likely = false }
  in
  let image =
    assemble ~sched:hoist_only (fun b ->
        Buf.emit b (Insn.Li (Reg.t0, 256));
        Buf.emit b (Insn.Li (Reg.t1, 7));
        Buf.emit b (Insn.St (Insn.Plain, Reg.t0, Reg.t1, 0));
        Buf.emit b (Insn.Li (Reg.t5, 0));
        Buf.emit b (Insn.Li (Reg.t6, n));
        Buf.emit b (Insn.Li (Reg.t7, 7));
        Buf.emit b (Insn.Li (Reg.t2, 7));
        Buf.label b "loop";
        Buf.emit b (Insn.Alui (Insn.Add, Reg.t5, Reg.t5, 1));
        (* hoist fodder: both land in the back branch's slots, the
           load second *)
        Buf.emit b (Insn.Alu (Insn.Add, Reg.t8, Reg.t7, Reg.t7));
        Buf.emit b (Insn.Ld (Insn.Plain, Reg.t2, Reg.t0, 0));
        Buf.emit b (branch Insn.Ne Reg.t5 Reg.t6 "mid");
        Buf.emit b (Insn.Mv (Reg.v0, Reg.t5));
        Buf.emit b Insn.Halt;
        Buf.label b "mid";
        (* reads the just-loaded t2 as the first instruction after the
           junction: one interlock per iteration *)
        Buf.emit b (branch Insn.Eq Reg.t2 Reg.t7 "loop");
        Buf.emit b (Insn.Trap 1))
  in
  let r = check_four "trace-cross-interlock" ~threshold:4 image in
  expect_outcome "trace-cross-interlock" (Printf.sprintf "halted %d" n) r;
  Alcotest.(check bool) "trace-cross-interlock: interlocks probed" true
    ((snd r).Stats.interlocks >= n - 2)

(* Fuel exhaustion while the loop is running traced: the traced engine
   pre-pays a whole trace, so it must fall back to blocks (and then to
   single steps) and stop at the identical retirement count. *)
let test_trace_fuel () =
  let r = check_four "trace-fuel" ~threshold:4 ~fuel:97 (counted_loop 50) in
  expect_outcome "trace-fuel" "out-of-fuel" r;
  let _, rs = run_raw ~fuel:97 (counted_loop 50) `Reference in
  Alcotest.(check int) "trace-fuel: retirements"
    (Stats.executed_insns rs)
    (Stats.executed_insns (snd r))

(* Attaching the traced engine twice must keep the same profile and
   trace state (the length guard recompiles only when the code
   changes). *)
let test_trace_attach_idempotent () =
  let m = Machine.create ~engine:`Traced ~hw (counted_loop 10) in
  Trace.attach m;
  let ts0 =
    match m.Machine.tstate with
    | Some ts -> ts
    | None -> Alcotest.fail "attach installed no trace state"
  in
  Trace.attach m;
  (match m.Machine.tstate with
  | Some ts1 ->
      Alcotest.(check bool) "trace state reused" true (ts0 == ts1)
  | None -> Alcotest.fail "re-attach dropped the trace state");
  Alcotest.(check bool) "fused blocks attached too" true
    (Array.length m.Machine.blocks > 0)

(* The memoised matrix driver must return the same measurements, in the
   same order, for any worker count. *)
let test_pool_jobs_agree () =
  let entries = List.filteri (fun i _ -> i < 3) (Run.all_entries ()) in
  let matrix =
    List.concat_map
      (fun e ->
        [
          Run.config ~scheme:Scheme.high5 ~support:Support.software e;
          Run.config ~scheme:Scheme.high5
            ~support:(Support.with_checking Support.software) e;
          (* a duplicate: run_many must dedupe and still return it *)
          Run.config ~scheme:Scheme.high5 ~support:Support.software e;
        ])
      entries
  in
  Run.clear_cache ();
  let serial = Run.run_many ~jobs:1 matrix in
  Run.clear_cache ();
  let parallel = Run.run_many ~jobs:4 matrix in
  Run.clear_cache ();
  Alcotest.(check int)
    "measurement count" (List.length matrix) (List.length serial);
  List.iter2
    (fun (a : Run.measurement) (b : Run.measurement) ->
      Alcotest.(check string)
        "input order preserved" a.Run.entry.B.name b.Run.entry.B.name;
      Alcotest.(check bool)
        (a.Run.entry.B.name ^ ": stats identical across job counts")
        true
        (Stats.equal a.Run.stats b.Run.stats);
      Alcotest.(check int)
        (a.Run.entry.B.name ^ ": gc collections")
        a.Run.gc_collections b.Run.gc_collections)
    serial parallel

let suite =
  [
    ( "engines",
      List.map
        (fun (e : B.entry) ->
          Alcotest.test_case e.B.name `Slow (test_engines_agree e))
        (B.all ())
      @ [
          Alcotest.test_case "garith-rett" `Quick test_garith_rett;
          Alcotest.test_case "squash-branch" `Quick test_squash_branch;
          Alcotest.test_case "fuel-exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "checked-load-trap" `Quick
            test_checked_load_trap;
          Alcotest.test_case "div-zero" `Quick test_div_zero;
          Alcotest.test_case "interlocks" `Quick test_interlocks;
          Alcotest.test_case "attach-idempotent" `Quick
            test_attach_idempotent;
          Alcotest.test_case "trace-promotion" `Quick test_trace_promotion;
          Alcotest.test_case "trace-side-exit" `Quick test_trace_side_exit;
          Alcotest.test_case "trace-squash-taken" `Quick
            test_trace_squash_taken;
          Alcotest.test_case "trace-squash-fall" `Quick
            test_trace_squash_fall;
          Alcotest.test_case "trace-indirect" `Quick test_trace_indirect;
          Alcotest.test_case "trace-div-zero" `Quick test_trace_div_zero;
          Alcotest.test_case "trace-garith" `Quick test_trace_garith;
          Alcotest.test_case "trace-cross-interlock" `Quick
            test_trace_cross_interlock;
          Alcotest.test_case "trace-fuel" `Quick test_trace_fuel;
          Alcotest.test_case "trace-attach-idempotent" `Quick
            test_trace_attach_idempotent;
          Alcotest.test_case "pool-jobs" `Quick test_pool_jobs_agree;
        ] );
  ]
