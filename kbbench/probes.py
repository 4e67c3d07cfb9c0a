"""The kbgeo functions the traced run wraps and the per-layer metrics it reports.

Each entry of `SPANS` names a public function or method by module and
attribute path; it is reported as `<name>.calls` and `<name>.self_s`.  The
counters below key their distinct-input sets on model identity: every model
the benchmark passes in stays alive for the whole run, so `id` is stable.
"""

from __future__ import annotations

import inspect

from spans import Patches, Recorder, counted, spanned

SPANS = (
    ("cli.load_model_text", "cli", "load_model_text"),
    ("core.term_functions", "core", "term_functions"),
    ("core.enumerate_substitutions", "core", "enumerate_substitutions"),
    ("core.model_isomorphisms", "core", "model_isomorphisms"),
    ("formulas.parse_formula", "formulas", "parse_formula"),
    ("semantics.pullback_indices", "semantics", "pullback_indices"),
    ("semantics.subst_preimage_points", "semantics", "subst_preimage_points"),
    ("semantics.subst_image_points", "semantics", "subst_image_points"),
    ("semantics.satisfying_points", "semantics", "satisfying_points"),
    ("lattice.generate_definable_algebra", "lattice", "generate_definable_algebra"),
    ("lattice.lattice_profile", "lattice", "lattice_profile"),
    ("lattice.closure", "lattice", "closure"),
    ("lattice.filter_preimage", "lattice", "filter_preimage"),
    ("lattice.block_masks", "lattice", "DefinableAlgebra.block_masks"),
    ("lattice.dump_lines", "lattice", "DefinableAlgebra.dump_lines"),
    ("categories.check_duality", "categories", "check_duality"),
    ("categories.verify_push_functoriality", "categories", "verify_push_functoriality"),
    ("categories.push_filter", "categories", "push_filter"),
    ("categories.least_desc_morphism", "categories", "least_desc_morphism"),
    ("categories.content_morphism", "categories", "content_morphism"),
    ("categories.compose_desc", "categories", "compose_desc"),
    ("equivalence.check_informational_equivalence", "equivalence",
     "check_informational_equivalence"),
    ("equivalence.check_automorphic_equivalence", "equivalence",
     "check_automorphic_equivalence"),
    ("equivalence.check_isomorphic", "equivalence", "check_isomorphic"),
    ("equivalence.find_functor_iso", "equivalence", "find_functor_iso"),
    ("equivalence.transport_model_iso", "equivalence", "transport_model_iso"),
    ("equivalence.build_description_iso", "equivalence", "build_description_iso"),
)

# (metric, unit) reported from counters, after the per-span calls and self_s.
COUNTERS = (
    ("core.term_functions.functions", "count"),
    ("core.enumerate_substitutions.distinct_ratio", "ratio"),
    ("core.Model.eq_calls", "count"),
    ("semantics.PointSpace.constructed", "count"),
    ("semantics.PointSpace.distinct_ratio", "ratio"),
    ("semantics.pullback_indices.distinct_ratio", "ratio"),
    ("lattice.generate_definable_algebra.distinct_ratio", "ratio"),
    ("lattice.members", "count"),
    ("lattice.blocks", "count"),
    ("lattice.DefinableSet.constructed", "count"),
    ("categories.checked", "count"),
    ("equivalence.find_functor_iso.hit_ratio", "ratio"),
    ("equivalence.lattice_builds_per_decision", "ratio"),
)

DECISIONS = ("check_informational_equivalence", "check_automorphic_equivalence")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def instrument(kb, rec: Recorder) -> Patches:
    """Wrap every function of `SPANS` and the counted class methods in the
    kbgeo modules held by `kb`; the returned patches undo it all."""
    modules = list(vars(kb).values())
    patches = Patches()
    decision_depth = [0]

    def on_functions(args, kwargs, result):
        rec.count("core.term_functions.functions", len(result.functions))

    def on_substitutions(args, kwargs, result):
        key = (_arg(args, kwargs, 0, "sig"), _arg(args, kwargs, 1, "source"),
               _arg(args, kwargs, 2, "target"), _arg(args, kwargs, 3, "max_depth"))
        rec.distinct("core.enumerate_substitutions", key)

    def on_pullback(args, kwargs, result):
        space = _arg(args, kwargs, 1, "source_space")
        rec.distinct("semantics.pullback_indices", (id(space.model), _arg(args, kwargs, 0, "subst")))

    def on_algebra(args, kwargs, result):
        model, varset = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "varset")
        rec.distinct("lattice.generate_definable_algebra", (id(model), len(varset)))
        rec.count("lattice.members", len(result))
        rec.count("lattice.blocks", len(result).bit_length() - 1)
        if decision_depth[0]:
            rec.count("equivalence.decision_builds")

    def on_report(args, kwargs, result):
        rec.count("categories.checked", result.checked)

    def on_iso(args, kwargs, result):
        rec.count("equivalence.find_functor_iso.hits", result is not None)

    after = {
        "core.term_functions": on_functions,
        "core.enumerate_substitutions": on_substitutions,
        "semantics.pullback_indices": on_pullback,
        "lattice.generate_definable_algebra": on_algebra,
        "categories.check_duality": on_report,
        "categories.verify_push_functoriality": on_report,
        "equivalence.find_functor_iso": on_iso,
    }

    def decision(fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if not decision_depth[0]:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.count("equivalence.decisions")
                rec.count("equivalence.decision_slots", 2 * bound.arguments["n_max"])
            decision_depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                decision_depth[0] -= 1

        return wrapper

    for name, module, path in SPANS:
        owner = getattr(kb, module)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, attr)
        inner = decision(original) if attr in DECISIONS else original
        wrapper = spanned(rec, name, inner, after.get(name))
        if cls:
            patches.set_attr(owner, attr, wrapper)
        elif not patches.rebind(modules, original, wrapper):
            raise RuntimeError(f"{name} is not bound in any kbgeo module")

    def on_space(args, kwargs):
        model, varset = _arg(args, kwargs, 1, "model"), _arg(args, kwargs, 2, "varset")
        rec.distinct("semantics.PointSpace", (id(model), varset.names))

    counted_methods = (
        (kb.core.Model, "__eq__", lambda a, k: rec.count("core.Model.eq_calls")),
        (kb.semantics.PointSpace, "__init__", on_space),
        (kb.lattice.DefinableSet, "__init__",
         lambda a, k: rec.count("lattice.DefinableSet.constructed")),
    )
    for cls, attr, before in counted_methods:
        patches.set_attr(cls, attr, counted(rec, cls.__dict__[attr], before))
    return patches


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced pass, as name -> (value, unit)."""
    times = rec.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in SPANS:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "core.term_functions.functions": c["core.term_functions.functions"],
        "core.enumerate_substitutions.distinct_ratio":
            rec.distinct_ratio("core.enumerate_substitutions"),
        "core.Model.eq_calls": c["core.Model.eq_calls"],
        "semantics.PointSpace.constructed": c["semantics.PointSpace"],
        "semantics.PointSpace.distinct_ratio": rec.distinct_ratio("semantics.PointSpace"),
        "semantics.pullback_indices.distinct_ratio":
            rec.distinct_ratio("semantics.pullback_indices"),
        "lattice.generate_definable_algebra.distinct_ratio":
            rec.distinct_ratio("lattice.generate_definable_algebra"),
        "lattice.members": c["lattice.members"],
        "lattice.blocks": c["lattice.blocks"],
        "lattice.DefinableSet.constructed": c["lattice.DefinableSet.constructed"],
        "categories.checked": c["categories.checked"],
        "equivalence.find_functor_iso.hit_ratio":
            ratio(c["equivalence.find_functor_iso.hits"],
                  times.get("equivalence.find_functor_iso", (0, 0.0))[0]),
        "equivalence.lattice_builds_per_decision":
            ratio(c["equivalence.decision_builds"], c["equivalence.decision_slots"]),
    }
    for name, unit in COUNTERS:
        out[name] = (derived[name], unit)
    return out
