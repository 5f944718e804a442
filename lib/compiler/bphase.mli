(** Wall-clock accounting for the backend's internal phases — the
    monolithic oracle's code generation; the staged path's AST->TIR
    lowering, check-elimination optimization and TIR->assembly
    selection; and whole-program scheduling plus assembly — accumulated
    across all worker domains and printed by the CLI under [--verbose]
    (via the pipeline-level [Instrument], which re-exports these
    totals). *)

type phase = Codegen | Lower | Opt | Select | Assemble

(** Per-phase seconds since start or {!reset}. *)
type totals = {
  codegen_s : float;
  lower_s : float;
  opt_s : float;
  select_s : float;
  schedule_s : float;
  assemble_s : float;
  link_s : float;
      (* [schedule_s] and [link_s] always read 0.0 (scheduling is part of
         [Assemble]); kept only until a benchmark change drops them *)
}

(** Accumulate [dt] seconds into a phase total (thread-safe). *)
val add : phase -> float -> unit

(** Run [f] and charge its wall-clock duration to [phase] (also on
    exception). *)
val time : phase -> (unit -> 'a) -> 'a

val totals : unit -> totals
val reset : unit -> unit
