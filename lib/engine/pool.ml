type cache_status = Hit | Miss | Off

let cache_status_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Off -> "off"

type exec = {
  obligation : Obligation.t;
  outcome : Obligation.outcome;
  cache : cache_status;
  worker : int;
  started : float;
  finished : float;
  trail : Supervisor.trail;
}

type stats = { respawns : int; lost_workers : int }

(* Shared scheduler state: one ready stack under one lock.  Obligations
   are few and short (a few hundred, well under a millisecond each), so
   the lock is held for a handful of list and table operations per
   obligation and is rarely contended.  Idle workers wait on [cond]: a
   producer signals once per obligation it makes ready, and [broadcast]
   happens only at shutdown. *)
type sched = {
  dag : Dag.t;
  cache : Cache.t option;
  sup : Supervisor.config;
  total : int;
  t0 : float;
  mu : Mutex.t;
  cond : Condition.t;
  (* every field below is guarded by [mu] *)
  mutable ready : string list;  (* LIFO: freshly released dependents run next *)
  indeg : (string, int) Hashtbl.t;
  (* an obligation can execute twice when a chaos kill lands between
     computing and publishing, but its dependents are released and
     [completed] bumped only by the first publish *)
  published : (string, unit) Hashtbl.t;
  mutable completed : int;
  mutable lives : int;  (* remaining respawn budget, shared by all workers *)
  mutable alive : int;
  mutable respawned : int;
  mutable lost : int;
  mutable shutdown : bool;
}

let crash_outcome (o : Obligation.t) reason =
  let reason = Printf.sprintf "obligation raised: %s" reason in
  Obligation.outcome
    [ Mirverif.Report.add_failure (Mirverif.Report.empty o.Obligation.id) ~case:"exception" ~reason ]

(* Quarantined outcomes describe this run's misfortune (a crash, a
   blown deadline), not a property of the fingerprinted inputs, so
   [cacheable] is false and they are never stashed — a warm run would
   otherwise replay the failure forever.  Clean and fallback outcomes
   are stashed as before. *)
let execute sched (o : Obligation.t) =
  let ((outcome, _, _) as result) =
    match sched.cache with
    | None ->
        let r = Supervisor.supervise sched.sup o in
        (r.Supervisor.outcome, Off, r.Supervisor.trail)
    | Some c -> (
        match Cache.find c o with
        | Some outcome -> (outcome, Hit, Supervisor.cached)
        | None ->
            let r = Supervisor.supervise sched.sup o in
            if r.Supervisor.cacheable then Cache.stash c o r.Supervisor.outcome;
            (r.Supervisor.outcome, Miss, r.Supervisor.trail))
  in
  (* every completion path — live, crashed, cached — feeds the hook
     before dependents are released, so gates driven by it (the
     override-composition proven set) are schedule-independent *)
  (match o.Obligation.on_outcome with None -> () | Some f -> f outcome);
  result

(* the callers below hold [mu] *)
let push sched id =
  sched.ready <- id :: sched.ready;
  Condition.signal sched.cond

let shutdown sched =
  sched.shutdown <- true;
  (* the pool's only broadcast *)
  Condition.broadcast sched.cond

(* Pop the newest ready obligation, parking while there is none.  Work
   still on the stack is handed out even after shutdown, so workers
   that outlive a failed peer drain what is ready. *)
let obtain sched =
  Mutex.protect sched.mu (fun () ->
      let rec wait () =
        match sched.ready with
        | id :: rest ->
            sched.ready <- rest;
            Some id
        | [] when sched.shutdown -> None
        | [] ->
            Condition.wait sched.cond sched.mu;
            wait ()
      in
      wait ())

let publish sched id =
  Mutex.protect sched.mu (fun () ->
      if not (Hashtbl.mem sched.published id) then begin
        Hashtbl.replace sched.published id ();
        List.iter
          (fun d ->
            let n = Hashtbl.find sched.indeg d - 1 in
            Hashtbl.replace sched.indeg d n;
            if n = 0 then push sched d)
          (Dag.dependents_of sched.dag id);
        sched.completed <- sched.completed + 1;
        if sched.completed = sched.total then shutdown sched
      end)

(* Results go to a domain-local buffer, merged after the join, so the
   lock guards scheduling state only.  [inflight] is what the worker
   holds, for the re-push after a kill. *)
let worker sched wid buf inflight =
  let kill_point site id =
    match sched.sup.Supervisor.chaos with
    | Some ch when Engine_chaos.kill_worker ch ~site ~id ->
        raise (Engine_chaos.Worker_killed id)
    | _ -> ()
  in
  let rec loop () =
    match obtain sched with
    | None -> ()
    | Some id ->
        let o =
          match Dag.find sched.dag id with
          | Some o -> o
          | None -> invalid_arg ("Pool: unknown obligation " ^ id)
        in
        inflight := Some id;
        kill_point "pre-exec" id;
        let started = Clock.now () -. sched.t0 in
        let outcome, cache, trail = execute sched o in
        let finished = Clock.now () -. sched.t0 in
        (* the nastier kill: the result is computed but not yet
           published — the respawned worker must redo the obligation *)
        kill_point "post-exec" id;
        buf :=
          { obligation = o; outcome; cache; worker = wid; started; finished; trail }
          :: !buf;
        inflight := None;
        publish sched id;
        loop ()
  in
  loop ()

(* The worker's survival wrapper.  A chaos kill ([Worker_killed])
   "kills the domain": the obligation it held goes back on the stack
   and, while the shared respawn budget lasts, the worker restarts
   in-domain (equivalent to joining the dead domain and spawning a
   fresh one, without paying for a real spawn).  Past the budget the
   worker stays dead and the survivors take what is on the stack; if
   the last live worker dies the pool shuts down and the merge
   synthesizes crash outcomes for whatever never ran.  Any other
   scheduler-level failure (not an obligation crash — the supervisor
   absorbs those) still shuts the pool down rather than stranding
   workers in [Condition.wait]. *)
let worker_supervised sched wid buf =
  let inflight = ref None in
  let rec go () =
    match worker sched wid buf inflight with
    | () -> ()
    | exception Engine_chaos.Worker_killed _ ->
        let respawn =
          Mutex.protect sched.mu (fun () ->
              Option.iter
                (fun id -> if not (Hashtbl.mem sched.published id) then push sched id)
                !inflight;
              if sched.lives > 0 then begin
                sched.lives <- sched.lives - 1;
                sched.respawned <- sched.respawned + 1;
                true
              end
              else begin
                sched.lost <- sched.lost + 1;
                sched.alive <- sched.alive - 1;
                if sched.alive = 0 then shutdown sched;
                false
              end)
        in
        inflight := None;
        if respawn then go ()
    | exception _ -> Mutex.protect sched.mu (fun () -> shutdown sched)
  in
  go ()

let run_with_stats ?cache ?(oversubscribe = false) ?(sup = Supervisor.default)
    ?(max_respawns = 32) ~jobs dag =
  let obls = Dag.obligations dag in
  let total = List.length obls in
  if total = 0 then ([], { respawns = 0; lost_workers = 0 })
  else begin
    let jobs = max 1 (min jobs total) in
    (* more active domains than cores cannot help CPU-bound work — it
       only adds stop-the-world GC synchronization across time-sliced
       domains (the old pool lost 4–5x to this) — so [jobs] caps
       concurrency and the hardware caps the domain count.
       [oversubscribe] bypasses the clamp so multi-domain scheduling is
       testable on any machine. *)
    let jobs =
      if oversubscribe then jobs else min jobs (Domain.recommended_domain_count ())
    in
    let sched =
      {
        dag;
        cache;
        sup;
        total;
        t0 = Clock.now ();
        mu = Mutex.create ();
        cond = Condition.create ();
        ready = [];
        indeg = Hashtbl.create (max 16 total);
        published = Hashtbl.create (max 16 total);
        completed = 0;
        lives = max 0 max_respawns;
        alive = jobs;
        respawned = 0;
        lost = 0;
        shutdown = false;
      }
    in
    Option.iter
      (fun c -> Option.iter (Cache.set_chaos c) sup.Supervisor.chaos)
      cache;
    (* roots pushed in DAG order (the last root runs first) and
       released dependents in [Dag.dependents_of] order: together they
       fix the [jobs = 1] schedule *)
    List.iter
      (fun (o : Obligation.t) ->
        Hashtbl.replace sched.indeg o.id (List.length o.deps);
        if o.deps = [] then sched.ready <- o.id :: sched.ready)
      obls;
    let bufs = Array.init jobs (fun _ -> ref []) in
    if jobs = 1 then
      (* inline fast path: no domain spawn, no parked workers *)
      worker_supervised sched 0 bufs.(0)
    else begin
      let domains =
        Array.mapi
          (fun wid buf -> Domain.spawn (fun () -> worker_supervised sched wid buf))
          bufs
      in
      Array.iter Domain.join domains
    end;
    Option.iter Cache.flush cache;
    let results = Hashtbl.create (max 16 total) in
    Array.iter
      (fun buf -> List.iter (fun e -> Hashtbl.replace results e.obligation.Obligation.id e) !buf)
      bufs;
    (* results in DAG insertion order: scheduling cannot influence what
       the caller sees.  An obligation a dead worker never published
       becomes an explicit crash outcome rather than a bare
       [Not_found]. *)
    let execs =
      List.map
        (fun (o : Obligation.t) ->
          match Hashtbl.find_opt results o.Obligation.id with
          | Some e -> e
          | None ->
              {
                obligation = o;
                outcome = crash_outcome o "worker exited before publishing a result";
                cache = Off;
                worker = -1;
                started = 0.0;
                finished = 0.0;
                trail =
                  { Supervisor.attempts = []; resolution = Supervisor.Quarantined };
              })
        obls
    in
    (execs, { respawns = sched.respawned; lost_workers = sched.lost })
  end

let run ?cache ?oversubscribe ?sup ?max_respawns ~jobs dag =
  fst (run_with_stats ?cache ?oversubscribe ?sup ?max_respawns ~jobs dag)

let wall_of execs =
  List.fold_left (fun acc e -> Float.max acc e.finished) 0.0 execs

let worker_stats execs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let busy, count =
        match Hashtbl.find_opt tbl e.worker with Some x -> x | None -> (0.0, 0)
      in
      Hashtbl.replace tbl e.worker (busy +. (e.finished -. e.started), count + 1))
    execs;
  Hashtbl.fold (fun w (busy, count) acc -> (w, busy, count) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
