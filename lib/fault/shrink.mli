(** Greedy list minimization — the shrinking discipline the fuzzer
    established, factored out so every failure-shrinking client (fuzz
    scenarios, chaos fault plans) reduces counterexamples the same way.

    The contract mirrors QuickCheck-style shrinking without the generator
    coupling: given a list for which [fails] holds, produce a (locally)
    minimal sublist with element magnitudes reduced, for which [fails] still
    holds. [fails] must be deterministic — it is re-evaluated on every
    candidate. *)

val minimize : fails:('a list -> bool) -> step:('a -> 'a option) -> 'a list -> 'a list
(** The standard two-phase greedy shrink. First, repeatedly remove the first
    element whose removal keeps the list failing, to a fixpoint: removing
    any single element then stops it failing. Then repeatedly replace the
    first element that [step] can weaken (e.g. halve a magnitude) while the
    list keeps failing, to a fixpoint.
    Precondition: [fails] holds for the input (otherwise the input is
    returned unchanged). *)
