(* Supervision overhead benchmark: wall-time of the obligation pool
   with supervision disabled (legacy path: no timeout, no retries, no
   chaos), with a production supervision config (deadline armed,
   retries budgeted — the per-attempt bookkeeping is paid even when
   nothing fails), and under full chaos injection (crashes, hangs,
   worker kills, clock skew absorbed by retry/respawn).  Emitted as
   BENCH_supervisor.json (see EXPERIMENTS.md).

   Run with: dune exec bench/supervisor_bench.exe -- [--quick] [--out FILE] *)

open Hyperenclave

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let out = ref "BENCH_supervisor.json" in
  Array.iteri
    (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1))
    Sys.argv;
  let seed = 2024 in
  let layout = Layout.default Geometry.tiny in
  let plan = Engine.Plan.build ~quick ~seed layout in
  let dag = plan.Engine.Plan.dag in
  (* build the lazily built code-proof context outside the timed runs *)
  ignore (Engine.Once.force plan.Engine.Plan.ctx);
  let n = Engine.Dag.size dag in
  let jobs = 4 in

  let best f =
    let _, w1 = time f in
    let _, w2 = time f in
    Float.min w1 w2
  in
  let bare = best (fun () -> Engine.Pool.run ~jobs dag) in

  let supervised_cfg =
    { Engine.Supervisor.default with timeout = Some 30.0; retries = 2; seed }
  in
  let supervised = best (fun () -> Engine.Pool.run ~sup:supervised_cfg ~jobs dag) in

  let chaos_cfg () =
    {
      Engine.Supervisor.default with
      timeout = Some 0.2;
      retries = 2;
      seed;
      chaos = Some (Engine.Engine_chaos.create ~seed:42 ());
    }
  in
  let chaos_wall, chaos_totals, chaos_stats =
    let (execs, stats), w =
      time (fun () -> Engine.Pool.run_with_stats ~sup:(chaos_cfg ()) ~jobs dag)
    in
    let totals =
      Engine.Supervisor.totals
        (List.map (fun (e : Engine.Pool.exec) -> e.Engine.Pool.trail) execs)
    in
    (w, totals, stats)
  in

  let open Engine.Jsonx in
  let json =
    Obj
      [
        ("bench", Str "supervisor");
        ("quick", Bool quick);
        ("seed", Int seed);
        ("obligations", Int n);
        ("jobs", Int jobs);
        ("bare_wall_s", Float bare);
        ("supervised_wall_s", Float supervised);
        ( "supervision_overhead_pct",
          Float (100.0 *. ((supervised /. Float.max bare 1e-9) -. 1.0)) );
        ( "supervision_overhead_us_per_obligation",
          Float (1e6 *. (supervised -. bare) /. float_of_int (max n 1)) );
        ("chaos_wall_s", Float chaos_wall);
        ("chaos_slowdown", Float (chaos_wall /. Float.max bare 1e-9));
        ("chaos_retried", Int chaos_totals.Engine.Supervisor.retried);
        ("chaos_recovered", Int chaos_totals.Engine.Supervisor.recovered);
        ("chaos_quarantined", Int chaos_totals.Engine.Supervisor.quarantined);
        ("chaos_worker_respawns", Int chaos_stats.Engine.Pool.respawns);
      ]
  in
  write_file !out (to_multiline_string json);
  print_string (to_multiline_string json)
