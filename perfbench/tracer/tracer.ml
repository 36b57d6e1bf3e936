(* The traced half of the perfbench benchmark.

   [tracer op FLAGS] runs one verification request in-process along the
   exact path the one-shot CLI takes (prelude, plan, cache, pool,
   rendering), with a span around each layer boundary, then probes the
   layers the CLI path only reaches from inside (front end, closure
   compilation, plan parts, whole-program analyses, cache writes).
   With [--untraced] it runs the same CLI path with spans off and only
   the outer timer, so the caller can measure the tracing overhead and
   the process start-up cost.

   [tracer serve --cache DIR --requests FILE --warmup N] feeds a stream
   of daemon request payloads (one JSON text per line) through an
   in-process {!Serve.Driver} session and times each hop the daemon's
   workers run: decode, prepare (plan memo), handle, framing.

   Output: one JSON object on stdout.  Nothing here writes outside the
   directories named on the command line. *)

module Plan = Engine.Plan
module Pool = Engine.Pool
module Cache = Engine.Cache
module Jsonx = Engine.Jsonx
module Layers = Hyperenclave.Layers

let now = Unix.gettimeofday
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("tracer: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Spans and counters                                                  *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace metrics name v
let seti name v = set name (float_of_int v)
let tracing = ref true

let timed name f =
  let t0 = now () in
  let r = f () in
  set name (now () -. t0);
  r

(* a span on the CLI path: recorded only when tracing is on, so the
   untraced run does the same work with nothing but the outer timer *)
let span name f = if !tracing then timed name f else f ()

let metrics_json () =
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) metrics []) in
  Jsonx.Obj (List.map (fun k -> (k, Jsonx.Float (Hashtbl.find metrics k))) names)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type req = {
  geometry : string;
  seed : int;
  quick : bool;
  lints : Analysis.Lint.kind list;
  overrides : bool;
  mc_depth : int option;
  buggy_tlb : bool;
  cache_dir : string option;
  jobs : int;
  stdout_out : string option;
  scratch : string option;  (* fresh directory for the cache-write probe *)
}

let parse_op args =
  let r =
    ref
      {
        geometry = "tiny";
        seed = 2024;
        quick = false;
        lints = Analysis.Lint.catalogue;
        overrides = true;
        mc_depth = None;
        buggy_tlb = false;
        cache_dir = None;
        jobs = Domain.recommended_domain_count ();
        stdout_out = None;
        scratch = None;
      }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> die "bad number %S" s in
  let rec go = function
    | [] -> ()
    | "--geometry" :: g :: rest ->
        if not (List.mem g [ "tiny"; "x86_64" ]) then die "bad geometry %S" g;
        r := { !r with geometry = g };
        go rest
    | "--seed" :: s :: rest -> r := { !r with seed = int_of s }; go rest
    | "--quick" :: rest -> r := { !r with quick = true }; go rest
    | "--lints" :: s :: rest -> (
        match Analysis.Lint.kinds_of_string s with
        | Ok ks -> r := { !r with lints = ks }; go rest
        | Error msg -> die "bad lints: %s" msg)
    | "--no-overrides" :: rest -> r := { !r with overrides = false }; go rest
    | "--model-check" :: d :: rest -> r := { !r with mc_depth = Some (int_of d) }; go rest
    | "--buggy-tlb" :: rest -> r := { !r with buggy_tlb = true }; go rest
    | "--cache" :: d :: rest -> r := { !r with cache_dir = Some d }; go rest
    | "--jobs" :: j :: rest -> r := { !r with jobs = max 1 (int_of j) }; go rest
    | "--stdout-out" :: f :: rest -> r := { !r with stdout_out = Some f }; go rest
    | "--scratch" :: d :: rest -> r := { !r with scratch = Some d }; go rest
    | "--untraced" :: rest -> tracing := false; go rest
    | a :: _ -> die "unknown argument %S" a
  in
  go args;
  !r

let layout_of = Serve.Driver.layout_of_geometry

let model_check_of r =
  Option.map
    (fun depth ->
      {
        Plan.mc_depth = max 1 depth;
        mc_por = true;
        mc_flush = not r.buggy_tlb;
        mc_layout = Serve.Driver.mc_layout_of_geometry "tiny";
      })
    r.mc_depth

(* ------------------------------------------------------------------ *)
(* The CLI path                                                        *)

(* Mirrors the one-shot run of bin/hyperenclave_verify.ml (chaos
   phases excluded): same calls, same order, same supervision config,
   stdout rendered into a buffer instead of the terminal. *)
let cli_path r =
  let layout = layout_of r.geometry in
  let failures = ref 0 in
  let buf = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer buf in
  span "hyperenclave.prelude_s" (fun () -> Serve.Render.prelude ppf ~failures layout);
  let security = r.geometry <> "x86_64" in
  let model_check = model_check_of r in
  let plan, _, _ =
    span "plan.build_s" (fun () ->
        (* Plan.build starts with Layers.warm; the traced run times that
           part on its own first, so plan.build_s still covers it and the
           warm call inside Plan.build finds every memo filled *)
        if !tracing then timed "hyperenclave.warm_s" (fun () -> Layers.warm layout);
        Plan.build_memo ~quick:r.quick ~security ~lints:r.lints ?model_check
          ~overrides:r.overrides ~seed:r.seed layout)
  in
  let cache =
    Option.map (fun dir -> span "cache.load_s" (fun () -> Cache.create ~dir)) r.cache_dir
  in
  if cache = None && !tracing then set "cache.load_s" 0.0;
  let sup = { Engine.Supervisor.default with retries = 2; seed = r.seed } in
  let execs, _ = Pool.run_with_stats ?cache ~sup ~jobs:r.jobs plan.Plan.dag in
  Serve.Render.engine_results ppf ~failures ~security execs;
  Option.iter (fun req -> Serve.Render.model_check ppf ~failures req execs) model_check;
  Serve.Render.verdict ppf !failures;
  Format.pp_print_flush ppf ();
  (plan, cache, execs, !failures, Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Figures derived from the pool's own timestamps                      *)

let busy (e : Pool.exec) = e.finished -. e.started
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let fmax f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0.0 l
let id_of (e : Pool.exec) = e.obligation.Engine.Obligation.id
let phase_of (e : Pool.exec) = e.obligation.Engine.Obligation.phase

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let pool_metrics (execs : Pool.exec list) =
  let by_id = Hashtbl.create 512 in
  List.iter (fun e -> Hashtbl.replace by_id (id_of e) e) execs;
  let deps_of (e : Pool.exec) =
    List.filter_map (Hashtbl.find_opt by_id) e.obligation.Engine.Obligation.deps
  in
  (* queue wait: start minus the latest finish among the deps (the pool
     start, 0, for a root); reported as the mean and the max over
     obligations *)
  let wait e = Float.max 0.0 (e.Pool.started -. fmax (fun d -> d.Pool.finished) (deps_of e)) in
  let workers = List.sort_uniq compare (List.map (fun (e : Pool.exec) -> e.worker) execs) in
  let wall = Pool.wall_of execs in
  let busy_total = sum busy execs in
  (* busy-weighted longest path through the DAG *)
  let cp = Hashtbl.create 512 in
  let rec path e =
    match Hashtbl.find_opt cp (id_of e) with
    | Some v -> v
    | None ->
        let v = busy e +. fmax path (deps_of e) in
        Hashtbl.replace cp (id_of e) v;
        v
  in
  set "pool.wall_s" wall;
  set "pool.busy_s" busy_total;
  set "pool.wait_s" (sum wait execs /. float_of_int (max 1 (List.length execs)));
  set "pool.wait_max_s" (fmax wait execs);
  seti "pool.workers" (List.length workers);
  set "pool.utilization"
    (if wall > 0.0 then busy_total /. (wall *. float_of_int (max 1 (List.length workers)))
     else 0.0);
  set "pool.critical_path_s" (fmax path execs);
  (* honest per-phase figures: busy is the sum of obligation busy times,
     span the interval from the phase's first start to its last finish *)
  List.iter
    (fun p ->
      let es = List.filter (fun e -> phase_of e = p) execs in
      set (Printf.sprintf "phase.%s.busy_s" p) (sum busy es);
      set
        (Printf.sprintf "phase.%s.span_s" p)
        (match es with
        | [] -> 0.0
        | e0 :: _ ->
            fmax (fun (e : Pool.exec) -> e.finished) es
            -. List.fold_left (fun acc (e : Pool.exec) -> Float.min acc e.started) e0.started es))
    Plan.phases;
  (* code-proof busy per verification layer: Trusted is L1, so the 13
     code-bearing layers are L2..L14 *)
  List.iteri
    (fun i lname ->
      if i >= 1 && i <= 13 then
        set
          (Printf.sprintf "codeproof.L%d.busy_s" (i + 1))
          (sum busy
             (List.filter
                (fun e -> starts_with (Printf.sprintf "code-proof/%s/" lname) (id_of e))
                execs)))
    Hyperenclave.Mem_spec.layer_names;
  let code = List.filter (fun e -> phase_of e = "code-proofs") execs in
  let cases, _, _, _ =
    Engine.Obligation.case_totals (List.map (fun (e : Pool.exec) -> e.outcome) code)
  in
  seti "codeproof.cases" cases;
  (* model checking *)
  let mc = List.filter (fun e -> phase_of e = "model-check") execs in
  let roll = Serve.Summary.mc_rollup execs in
  let shards = List.filter (fun e -> starts_with "mc/shard" (id_of e)) mc in
  seti "mc.states" (if mc = [] then 0 else roll.Mc.Explore.r_states);
  seti "mc.transitions" roll.Mc.Explore.r_transitions;
  seti "mc.deduped" roll.Mc.Explore.r_deduped;
  seti "mc.pruned" roll.Mc.Explore.r_pruned;
  seti "mc.shards" (List.length shards);
  set "mc.root_busy_s" (sum busy (List.filter (fun e -> id_of e = "mc/root") mc));
  set "mc.shard_busy_max_s" (fmax busy shards);
  set "mc.shard_busy_sum_s" (sum busy shards);
  seti "mc.witness_events" (Option.value ~default:0 (Mc.Explore.min_witness roll))

(* ------------------------------------------------------------------ *)
(* Probes: layers the CLI path reaches only from inside                *)

let dir_stats dir =
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  let packs = List.filter (fun f -> Filename.check_suffix f ".pack") files in
  let bytes =
    sum
      (fun f ->
        try float_of_int (Unix.stat (Filename.concat dir f)).Unix.st_size
        with Unix.Unix_error _ -> 0.0)
      files
  in
  (List.length packs, bytes)

let probes r (execs : Pool.exec list) cache =
  let layout = layout_of r.geometry in
  let source = Hyperenclave.Mem_source.source layout in
  let out = timed "rustlite.compile_s" (fun () -> Rustlite.Pipeline.compile_exn source) in
  seti "rustlite.mir_lines" out.Rustlite.Pipeline.mir_lines;
  let code_layers =
    List.filter
      (fun l -> Layers.functions_of_layer layout l <> [])
      Hyperenclave.Mem_spec.layer_names
  in
  let envs = List.map (fun layer -> Layers.env_for layout ~layer) code_layers in
  let mcache = Mir.Compile.cache () in
  timed "mir.compile_s" (fun () ->
      List.iter (fun env -> ignore (Mir.Compile.compile ~cache:mcache env)) envs);
  seti "mir.bodies" (Mir.Compile.cache_size mcache);
  (* plan parts: the exposed builders Plan.build assembles the DAG from *)
  let lints = r.lints in
  ignore (timed "plan.analysis_s" (fun () -> Plan.analysis_obligations ~lints layout));
  ignore (timed "plan.absint_s" (fun () -> Plan.absint_obligations ~lints layout));
  ignore (timed "plan.borrow_s" (fun () -> Plan.borrow_obligations ~lints layout));
  ignore (timed "plan.alias_s" (fun () -> Plan.alias_obligations ~lints layout));
  ignore (timed "plan.ctx_s" (fun () -> Check.Code_proof.ctx ~seed:r.seed layout));
  ignore
    (timed "plan.code_proof_s" (fun () ->
         Plan.code_proof_obligations ~seed:r.seed ~overrides:r.overrides layout));
  (match model_check_of r with
  | Some req -> ignore (timed "plan.mc_s" (fun () -> Plan.mc_obligations ~deps:[] req layout))
  | None -> set "plan.mc_s" 0.0);
  (* one whole-program call per analysis domain *)
  let program = out.Rustlite.Pipeline.program in
  let funcs = out.Rustlite.Pipeline.function_names in
  ignore
    (timed "analysis.alias_whole_s" (fun () ->
         Analysis.Alias.analyze ~prim:Check.Code_proof.prim_summary program));
  ignore
    (timed "analysis.interval_whole_s" (fun () ->
         Analysis.Interval_lint.check program ~funcs));
  ignore
    (timed "analysis.secret_flow_whole_s" (fun () ->
         Analysis.Secret_flow.check (Security.Labels.secret_flow_config layout program) ~funcs));
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let m k = Option.value ~default:0.0 (Hashtbl.find_opt metrics k) in
  set "analysis.alias_redundancy" (ratio (m "phase.alias.busy_s") (m "analysis.alias_whole_s"));
  set "analysis.absint_redundancy"
    (ratio (m "phase.absint.busy_s")
       (m "analysis.interval_whole_s" +. m "analysis.secret_flow_whole_s"));
  (* cache: read side from the run, write side re-played into a scratch
     directory with the run's executed outcomes *)
  let executed = List.filter (fun (e : Pool.exec) -> e.cache <> Pool.Hit) execs in
  let hits = List.length execs - List.length executed in
  set "cache.hit_ratio"
    (if cache = None || execs = [] then 0.0
     else float_of_int hits /. float_of_int (List.length execs));
  (match (cache, r.cache_dir) with
  | Some c, Some dir ->
      ignore (timed "cache.refresh_s" (fun () -> Cache.refresh c));
      seti "cache.entries" (Cache.entry_count c);
      let packs, bytes = dir_stats dir in
      seti "cache.pack_files" packs;
      set "cache.bytes" bytes
  | _ ->
      List.iter (fun k -> set k 0.0)
        [ "cache.refresh_s"; "cache.entries"; "cache.pack_files"; "cache.bytes" ]);
  match r.scratch with
  | Some dir ->
      timed "cache.stash_flush_s" (fun () ->
          let c = Cache.create ~dir in
          List.iter (fun (e : Pool.exec) -> Cache.stash c e.obligation e.outcome) executed;
          Cache.flush c)
  | None -> set "cache.stash_flush_s" 0.0

let run_op args =
  let r = parse_op args in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let plan, cache, execs, failures, stdout = cli_path r in
  let total = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  Option.iter (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc stdout)) r.stdout_out;
  if !tracing then begin
    set "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    set "gc.promoted_words" (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    seti "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
    seti "plan.obligations" (Engine.Dag.size plan.Plan.dag);
    pool_metrics execs;
    probes r execs cache
  end;
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("mode", Jsonx.Str (if !tracing then "traced" else "untraced"));
            ("cli_path_s", Jsonx.Float total);
            ("failures", Jsonx.Int failures);
            ("metrics", metrics_json ());
          ]))

(* ------------------------------------------------------------------ *)
(* The daemon's worker hops, in-process                                *)

let run_serve args =
  let cache_dir = ref None and requests = ref None and warmup = ref 0 in
  let rec go = function
    | [] -> ()
    | "--cache" :: d :: rest -> cache_dir := Some d; go rest
    | "--requests" :: f :: rest -> requests := Some f; go rest
    | "--warmup" :: n :: rest -> warmup := int_of_string n; go rest
    | a :: _ -> die "unknown argument %S" a
  in
  go args;
  let payloads =
    match !requests with
    | None -> die "serve needs --requests FILE"
    | Some f ->
        In_channel.with_open_bin f In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
  in
  (* a daemon worker: one pool domain, the shared cache, the default
     plan pre-built at start *)
  let session = Serve.Driver.session ?cache_dir:!cache_dir ~jobs:1 () in
  ignore
    (Plan.build_memo ~seed:Serve.Driver.default_request.Serve.Driver.seed
       (layout_of Serve.Driver.default_request.Serve.Driver.geometry));
  let rows = ref [] and hits = ref 0 and prepared = ref 0 in
  List.iteri
    (fun i payload ->
      let t0 = now () in
      let req =
        match Serve.Driver.request_of_string payload with
        | Ok req -> req
        | Error msg -> die "bad request %d: %s" i msg
      in
      let t1 = now () in
      let p = Serve.Driver.prepare req in
      let t2 = now () in
      let response =
        match Serve.Driver.handle_batch session [ ("0", payload) ] with
        | [ (_, resp) ] -> resp
        | _ -> die "batch shape"
      in
      let t3 = now () in
      let rd = Serve.Protocol.Reader.create () in
      Serve.Protocol.Reader.feed rd (Serve.Protocol.frame response);
      (match Serve.Protocol.Reader.next rd with `Frame _ -> () | _ -> die "frame");
      let t4 = now () in
      let stdout_md5 =
        match Jsonx.parse response with
        | Ok j -> (
            match Option.bind (Jsonx.member "stdout" j) Jsonx.to_string_opt with
            | Some s -> Digest.to_hex (Digest.string s)
            | None -> "error")
        | Error _ -> "error"
      in
      if i >= !warmup then begin
        incr prepared;
        if p.Serve.Driver.p_hit then incr hits
      end;
      rows :=
        Jsonx.Obj
          [
            ("decode_s", Jsonx.Float (t1 -. t0));
            ("prepare_s", Jsonx.Float (t2 -. t1));
            ("handle_s", Jsonx.Float (t3 -. t2));
            ("frame_s", Jsonx.Float (t4 -. t3));
            ("stdout_md5", Jsonx.Str stdout_md5);
          ]
        :: !rows)
    payloads;
  let steady = max 1 (List.length payloads - !warmup) in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("requests", Jsonx.List (List.rev !rows));
            ("replays", Jsonx.Int session.Serve.Driver.replays);
            ("total", Jsonx.Int (List.length payloads));
            ( "plan_memo_hit_ratio",
              Jsonx.Float (float_of_int !hits /. float_of_int (max 1 !prepared)) );
            ("steady", Jsonx.Int steady);
          ]))

(* ------------------------------------------------------------------ *)
(* Machine record                                                      *)

(* Effective parallelism of two domains: the same CPU loop on one
   domain, then on two at once; 2.0 means two real cores, 1.0 one. *)
let run_probe () =
  let spin () =
    let x = ref 0 in
    for i = 1 to 30_000_000 do x := (!x * 31) + i done;
    Sys.opaque_identity !x
  in
  let time f = let t0 = now () in f (); now () -. t0 in
  ignore (spin ());
  let one = time (fun () -> ignore (spin ())) in
  let two =
    time (fun () ->
        let d = Domain.spawn spin in
        ignore (spin ());
        ignore (Domain.join d))
  in
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("one_domain_s", Jsonx.Float one);
            ("two_domains_s", Jsonx.Float two);
            ("effective_parallelism", Jsonx.Float (2.0 *. one /. two));
            ("ocaml_version", Jsonx.Str Sys.ocaml_version);
            ("recommended_domains", Jsonx.Int (Domain.recommended_domain_count ()));
          ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "probe" :: _ -> run_probe ()
  | _ :: "op" :: args -> run_op args
  | _ :: "serve" :: args -> run_serve args
  | _ -> die "usage: tracer (op FLAGS | serve --requests FILE [--cache DIR] [--warmup N] | probe)"
