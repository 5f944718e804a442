(** Wall-clock accounting for the backend's internal phases, mirroring
    the pipeline-level {!Tagsim_analysis.Instrument} (which re-exports
    these totals): monolithic code generation, the staged path's
    lowering / optimization / selection split, and assembly.  Both
    backends schedule delay slots inside {!Tagsim_asm.Image.assemble},
    so scheduling time lands in [Assemble].  Workers on any domain
    accumulate into the shared totals (mutex-protected; the amounts are
    milliseconds-coarse, so one lock is irrelevant). *)

type phase = Codegen | Lower | Opt | Select | Assemble

type totals = {
  codegen_s : float;
  lower_s : float;
  opt_s : float;
  select_s : float;
  schedule_s : float;
  assemble_s : float;
  link_s : float;
}

let now () = Unix.gettimeofday ()

let mutex = Mutex.create ()
let codegen_s = ref 0.0
let lower_s = ref 0.0
let opt_s = ref 0.0
let select_s = ref 0.0
let assemble_s = ref 0.0

let slot = function
  | Codegen -> codegen_s
  | Lower -> lower_s
  | Opt -> opt_s
  | Select -> select_s
  | Assemble -> assemble_s

let add phase dt =
  Mutex.protect mutex (fun () ->
      let r = slot phase in
      r := !r +. dt)

let time phase f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add phase (now () -. t0)) f

let totals () =
  Mutex.protect mutex (fun () ->
      {
        codegen_s = !codegen_s;
        lower_s = !lower_s;
        opt_s = !opt_s;
        select_s = !select_s;
        schedule_s = 0.0;
        assemble_s = !assemble_s;
        link_s = 0.0;
      })

let reset () =
  Mutex.protect mutex (fun () ->
      codegen_s := 0.0;
      lower_s := 0.0;
      opt_s := 0.0;
      select_s := 0.0;
      assemble_s := 0.0)
