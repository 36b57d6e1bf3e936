(** OCaml 5 [Domain] worker pool over an obligation DAG, with one
    shared ready stack.

    [run ~jobs dag] executes every obligation, respecting dependency
    edges, on up to [jobs] domains.  Ready obligations sit on one LIFO
    stack guarded by one mutex: roots are pushed in DAG order, and the
    dependents an obligation releases are pushed in
    {!Dag.dependents_of} order, so they run while their inputs are
    warm.  Idle workers wait on one condition variable, signalled once
    per obligation made ready; the only broadcast is at shutdown.

    [jobs] caps concurrency; the pool additionally never spawns more
    domains than [Domain.recommended_domain_count ()], because active
    domains beyond the hardware only add stop-the-world GC
    synchronization to CPU-bound work.  [jobs = 1] (or a one-core
    clamp) runs inline on the calling domain with no spawn at all.
    [~oversubscribe:true] bypasses the clamp, so tests on a one-core
    machine still exercise multi-domain scheduling.

    Results come back in the DAG's insertion order, so the merged
    output is byte-identical at any job count; only the trace metadata
    (worker ids, timestamps — all read from {!Clock}) reflects the
    actual schedule.  Workers accumulate results in domain-local
    buffers merged after the join; an obligation whose worker died
    before publishing yields an explicit crash outcome, not an
    exception.

    With [?cache], each obligation is first looked up in the
    content-addressed proof cache and executed only on a miss; outcomes
    are batched ({!Cache.stash}) and written as one pack file per run
    ({!Cache.flush}, called before [run] returns).

    Cache misses execute under {!Supervisor.supervise} with [?sup]
    (default {!Supervisor.default}: one attempt, no deadline — the
    historical behaviour).  An obligation that raises is converted into
    a one-failure report rather than tearing down the pool, and
    quarantined outcomes are never cached; clean and fallback outcomes
    are.  Each [exec] carries the supervision {!Supervisor.trail}.
    Any other exception in a worker (an [on_outcome] hook that raises,
    say) shuts the pool down: the run still returns, with a crash
    outcome for every obligation that never published.

    When [sup.chaos] is armed, workers additionally pass kill points
    before executing and before publishing an obligation; a chaos kill
    tears the worker down mid-flight.  The obligation it held goes back
    on the ready stack and the worker respawns while the shared
    [?max_respawns] budget (default 32) lasts; past it the worker stays
    dead and the survivors take what is left.  A per-obligation publish
    flag keeps dependent release and completion counting exactly-once
    even when a kill lands between computing and publishing a result
    (the obligation simply runs again). *)

type cache_status = Hit | Miss | Off

val cache_status_to_string : cache_status -> string

type exec = {
  obligation : Obligation.t;
  outcome : Obligation.outcome;
  cache : cache_status;
  worker : int;  (** worker that ran (or replayed) it *)
  started : float;  (** seconds since pool start *)
  finished : float;
  trail : Supervisor.trail;
      (** how execution went: attempts, faults injected, resolution
          ({!Supervisor.cached} for a hit) *)
}

type stats = {
  respawns : int;  (** workers killed by chaos and restarted *)
  lost_workers : int;  (** workers dead past the respawn budget *)
}

val run :
  ?cache:Cache.t -> ?oversubscribe:bool -> ?sup:Supervisor.config ->
  ?max_respawns:int -> jobs:int -> Dag.t -> exec list

val run_with_stats :
  ?cache:Cache.t -> ?oversubscribe:bool -> ?sup:Supervisor.config ->
  ?max_respawns:int -> jobs:int -> Dag.t -> exec list * stats

val wall_of : exec list -> float
(** Latest finish time = the pool's wall-clock. *)

val worker_stats : exec list -> (int * float * int) list
(** Per worker: (id, busy seconds, obligations run), sorted by id —
    the utilization numbers of the summary output. *)
