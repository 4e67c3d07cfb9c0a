"""Tests of the span recorder, the rebinding, the probes and the generator.

Run from the root of a source checkout:

    python3 -m pytest kbbench
"""

import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from run import import_kbgeo  # noqa: E402
from spans import Patches, Recorder, counted, spanned  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # a: 0..10 holds b: 1..4 and c: 5..9; c holds d: 6..7
    rec = Recorder(FakeClock(100, 100, 101, 104, 105, 106, 107, 109, 110))
    a = rec.open("a")
    b = rec.open("b")
    rec.close(b)
    c = rec.open("c")
    d = rec.open("d")
    rec.close(d)
    rec.close(c)
    rec.close(a)
    assert rec.self_times() == {"a": (1, 3.0), "b": (1, 3.0), "c": (1, 3.0), "d": (1, 1.0)}
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert rec.top_level_s() == 10.0


def test_self_times_of_all_spans_add_up_to_the_top_level_spans():
    rec = Recorder()
    rec.active = True

    def leaf(x):
        return x + 1

    leaf_w = spanned(rec, "leaf", leaf)

    def inner(x):
        return sum(leaf_w(i) for i in range(x))

    inner_w = spanned(rec, "inner", inner)
    outer_w = spanned(rec, "outer", lambda: [inner_w(i) for i in range(20)])
    outer_w()
    outer_w()
    times = rec.self_times()
    assert times["leaf"][0] == 2 * sum(range(20))
    assert times["inner"][0] == 40 and times["outer"][0] == 2
    total = sum(s for _, s in times.values())
    assert abs(total - rec.top_level_s()) < 1e-9
    assert all(s >= 0 for _, s in times.values())


def test_spanned_records_only_while_active_and_closes_on_error():
    rec = Recorder()
    seen = []

    def boom(x):
        if x:
            raise ValueError("boom")
        return "ok"

    wrapped = spanned(rec, "boom", boom, after=lambda a, k, r: seen.append(r))
    assert wrapped(0) == "ok" and len(rec.start) == 0
    rec.active = True
    assert wrapped(0) == "ok"
    try:
        wrapped(1)
    except ValueError:
        pass
    assert len(rec.start) == 2 and all(e >= s for s, e in zip(rec.start, rec.end))
    assert seen == ["ok"] and rec._stack == []


def test_counted_and_distinct_ratio():
    rec = Recorder()
    fn = counted(rec, lambda x: x * 2, lambda a, k: rec.distinct("double", a[0]))
    rec.active = True
    assert [fn(x) for x in (1, 2, 1, 1)] == [2, 4, 2, 2]
    assert rec.counts["double"] == 4 and rec.distinct_ratio("double") == 0.5
    assert rec.distinct_ratio("never") == 0.0


def test_rebind_reaches_every_module_and_undo_restores():
    lib = types.ModuleType("lib")
    exec("def leaf():\n    return 1\n\ndef caller():\n    return leaf()\n", vars(lib))
    user = types.ModuleType("user")
    user.leaf = lib.leaf
    original = lib.leaf
    rec = Recorder()
    rec.active = True
    patches = Patches()
    assert patches.rebind([lib, user], original, spanned(rec, "leaf", original)) == 2
    assert lib.caller() == 1 and user.leaf() == 1
    assert rec.self_times()["leaf"][0] == 2
    patches.undo()
    assert lib.leaf is original and user.leaf is original


def test_instrument_traces_calls_across_modules_and_undoes():
    kb = import_kbgeo(os.path.join(os.path.dirname(HERE), "src"))
    before = kb.lattice.generate_definable_algebra
    init = kb.semantics.PointSpace.__dict__["__init__"]
    model = kb.cli.load_model_text("carrier: 0 1\nrel P 1\nrel P: 1\n")
    rec = Recorder()
    patches = probes.instrument(kb, rec)
    rec.active = True
    try:
        lat = kb.lattice.build_filter_lattice(model, kb.core.canonical_varset(2))
        kb.lattice.build_filter_lattice(model, kb.core.canonical_varset(2))
    finally:
        rec.active = False
        patches.undo()
    assert kb.lattice.generate_definable_algebra is before
    assert kb.semantics.PointSpace.__dict__["__init__"] is init
    layers = probes.layer_metrics(rec)
    assert layers["lattice.generate_definable_algebra.calls"] == (2, "count")
    assert layers["lattice.generate_definable_algebra.distinct_ratio"][0] == 0.5
    assert layers["core.term_functions.calls"][0] == 2
    assert layers["lattice.members"][0] == 2 * len(lat)
    assert layers["lattice.blocks"][0] == 2 * (len(lat).bit_length() - 1)
    assert layers["lattice.DefinableSet.constructed"][0] == 2 * len(lat)
    assert layers["semantics.satisfying_points.calls"][0] == 2 * len(lat)
    assert layers["semantics.PointSpace.constructed"][0] >= 2
    names = {name for name, _, _ in probes.SPANS}
    assert {k.rsplit(".", 1)[0] for k in layers if k.endswith(".calls")} == names


def test_same_seed_gives_identical_model_text():
    def texts(seed):
        kb = import_kbgeo(os.path.join(os.path.dirname(HERE), "src"))
        load = workloads.Loader(kb)
        workloads.pairs_setup(kb, random.Random(f"equiv_pairs:{seed}"), load)
        return load.texts

    first = texts(5)
    assert first == texts(5)
    assert first != texts(6)


def test_oracle_atoms_match_the_brute_force_family():
    rng = random.Random(0)
    for size, ops, rels, n in ((2, (), workloads.P_R, 2), (3, workloads.F, workloads.U, 1),
                               (2, workloads.G, workloads.U, 2)):
        spec = gen.random_spec(rng, size, ops, rels)
        atoms = gen.atoms(spec, n)
        unions = {sum(a for i, a in enumerate(atoms) if bits >> i & 1)
                  for bits in range(2 ** len(atoms))}
        assert unions == gen.brute_family(spec, n)


def test_term_count_matches_the_package_enumeration():
    kb = import_kbgeo(os.path.join(os.path.dirname(HERE), "src"))
    spec = gen.random_spec(random.Random(1), 2, workloads.F + workloads.G, workloads.U)
    model = kb.cli.load_model_text(gen.to_kbm(spec))
    for n in (1, 2):
        for depth in (0, 1, 2):
            terms = kb.core.enumerate_terms(model.sig, kb.core.canonical_varset(n), depth)
            assert workloads.term_count(spec, n, depth) == len(terms)
