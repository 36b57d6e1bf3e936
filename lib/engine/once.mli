(** A mutex-guarded once-cell: a value built on first use, from
    whichever domain gets there first, and shared afterwards.

    Unlike [Lazy.t], forcing is safe from several domains at once (the
    others wait for the first), and a builder that raises leaves the
    cell empty, so the next {!force} builds again instead of
    re-raising the first failure.  The plan uses it for state that only
    executing obligations need — the code-proof check context, the
    whole-program alias solve — so a run served entirely from the cache
    never builds it. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A cell that runs the builder on the first successful {!force}. *)

val force : 'a t -> 'a
(** The value, building it under the cell's mutex if no force has
    succeeded yet.  An exception from the builder propagates and the
    cell stays empty. *)

val is_forced : 'a t -> bool
(** Whether a force has succeeded. *)
