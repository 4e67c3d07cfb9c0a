"""Model files, phi specs, report formats, and subcommand exit codes."""

import itertools
import pathlib
import re

import pytest

from kbgeo import (
    DEFAULT_MAX_POINTS,
    Model,
    ModelError,
    Signature,
    VERDICT_WITNESSED,
    check_automorphic_equivalence,
    check_informational_equivalence,
    cli,
    lattice,
    semantics,
)
from kbgeo.categories import knowledge_base
from kbgeo.cli import (
    DataError,
    EXIT_DATA,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    UsageError,
    load_model,
    load_model_text,
    parse_phi_spec,
    parse_point_rows,
    parse_var_list,
    print_model,
    run_command,
)
from helpers import all_fixtures, model_p

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
EQUIV_GOLDEN = pathlib.Path(__file__).resolve().parent / "equiv_machine.golden"
DUMP_GOLDEN = pathlib.Path(__file__).resolve().parent / "lattice_dump.golden"
SWEEPS_GOLDEN = pathlib.Path(__file__).resolve().parent / "sweeps_machine.golden"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture
def default_point_bound(monkeypatch):
    """Runs under the default point bound, whatever KBGEO_MAX_POINTS says."""
    monkeypatch.delenv("KBGEO_MAX_POINTS", raising=False)


def test_load_fixture_files_match_programmatic_models():
    by_name = dict(all_fixtures())
    for name, expected in by_name.items():
        loaded = load_model(fixture(f"{name}.kbm"))
        assert loaded.sig == expected.sig
        assert tuple(str(e) for e in expected.carrier) == loaded.carrier


@pytest.mark.parametrize("name", sorted(name for name, _ in all_fixtures()))
def test_model_text_round_trip(name):
    m = load_model(fixture(f"{name}.kbm"))
    again = load_model_text(print_model(m), "round-trip")
    assert again == m
    assert print_model(again) == print_model(m)


@pytest.mark.parametrize("carrier,bad", [
    ((0, 1), 0),
    (("a", "a#b"), "a#b"),
    (("a,b", "c"), "a,b"),
    (("a b", "c"), "a b"),
    (("a", "a->b"), "a->b"),
    (("", "a"), ""),
    (("ok", "a b", "c#d"), "a b"),
])
def test_a_model_the_format_cannot_hold_is_refused(carrier, bad):
    """An element that is not a non-empty string free of whitespace, '#',
    ',' and '->' would not load back as itself: the first such is named."""
    m = Model(Signature((("f", 1),), (("P", 1),)), carrier,
              {"f": {(e,): e for e in carrier}}, {"P": [(carrier[-1],)]})
    with pytest.raises(ModelError, match=f"^cannot write carrier element {re.escape(repr(bad))} "):
        print_model(m)


def test_loader_reports_line_numbers():
    with pytest.raises(DataError) as info:
        load_model_text("carrier: 0 1\nwhatever\n", "bad.kbm")
    assert "bad.kbm:2" in str(info.value)
    with pytest.raises(DataError) as info:
        load_model_text("rel P 1\n", "nocarrier.kbm")
    assert "nocarrier.kbm" in str(info.value)
    with pytest.raises(DataError) as info:
        load_model_text("carrier: 0 1\nflag with_equality maybe\n", "flag.kbm")
    assert "flag.kbm:2" in str(info.value)


def test_loader_validates_tables():
    text = "carrier: 0 1\nop neg 1\nop neg: 0 -> 1\n"
    with pytest.raises(DataError) as info:
        load_model_text(text, "partial.kbm")
    assert "neg" in str(info.value) and "partial.kbm" in str(info.value)
    with pytest.raises(DataError):
        load_model_text("carrier: 0 1\nrel P 1\nrel P: 7\n", "outside.kbm")
    with pytest.raises(DataError):
        load_model_text("carrier: 0 1\nrel P 1\nrel P 1\n", "twice.kbm")


def test_loader_flag_off_and_comments():
    text = "# heading\ncarrier: 0 1  # trailing\nflag with_equality off\n"
    m = load_model_text(text)
    assert not m.sig.with_equality
    assert m.carrier == ("0", "1")


def test_missing_file_is_data_error():
    with pytest.raises(DataError):
        load_model(fixture("no_such.kbm"))


@pytest.mark.parametrize("text,phi,code,message", [
    ("carrier: 0 1\ncarrier: 0 1\n", None, EXIT_DATA, "error: {path}:2: carrier declared twice"),
    ("carrier:\n", None, EXIT_DATA, "error: {path}:1: carrier must list at least one element"),
    ("carrier: 0 1\nop f\n", None, EXIT_DATA,
     "error: {path}:2: expected 'op NAME ARITY', got 'op f'"),
    ("carrier: 0 1\nrel P one\n", None, EXIT_DATA,
     "error: {path}:2: arity 'one' is not an integer"),
    ("carrier: 0 1\nrel P 1\nrel P Q: 0\n", None, EXIT_DATA,
     "error: {path}:3: expected 'rel NAME: row', got 'rel P Q: 0'"),
    ("carrier: 0 1\nop f 1\nop f: 0\n", None, EXIT_DATA,
     "error: {path}:3: operation row needs 'args -> value'"),
    ("carrier: 0 1\nop f 1\nop f: 0 -> 1\nop f: 0 -> 0\n", None, EXIT_DATA,
     "error: {path}:4: op f row ('0',) given twice"),
    ("carrier: 0 1\nrel P 1\nrel P:\n", None, EXIT_DATA,
     "error: {path}:3: relation row needs at least one element"),
    (None, "swaprel P P", EXIT_USAGE, "usage error: swaprel names must be distinct"),
    (None, "renamevars x1", EXIT_USAGE, "usage error: renamevars entry 'x1' is not 'var:var'"),
    (None, "renamevars x1:x3,x3:x1", EXIT_USAGE,
     "usage error: renamed variables do not fit within x1..x2"),
])
def test_malformed_input_exits_with_its_message(tmp_path, default_point_bound, text, phi, code,
                                                message):
    """A malformed model file names its line and exits 65; a malformed phi
    spec is a usage error, exit 64.  A file without a fault is m_pq1."""
    path = tmp_path / "model.kbm"
    path.write_text(text or (FIXTURES / "m_pq1.kbm").read_text())
    argv = ["equiv", str(path), str(path), "--max-vars", "2"] + (["--phi", phi] if phi else [])
    assert run_command(argv) == (code, message.format(path=path))


def test_parse_var_list():
    assert parse_var_list("x, y").names == ("x", "y")
    with pytest.raises(UsageError):
        parse_var_list(" , ")
    with pytest.raises(UsageError):
        parse_var_list("x,x")


def test_parse_point_rows():
    assert parse_point_rows("1,0;0,1") == [("1", "0"), ("0", "1")]
    assert parse_point_rows("") == []
    assert parse_point_rows("1") == [("1",)]


def test_parse_phi_specs():
    sig = Signature((), (("P", 1), ("Q", 1)))
    assert parse_phi_spec("identity", sig, 2).is_identity
    swap = parse_phi_spec("swaprel P Q", sig, 2)
    assert swap.describe() == "swap P Q"
    ren = parse_phi_spec("renamevars x1:x2,x2:x1", sig, 2)
    assert ren.describe() == "renamevars[2] x1:x2,x2:x1"
    with pytest.raises(UsageError):
        parse_phi_spec("swaprel P", sig, 2)
    with pytest.raises(UsageError):
        parse_phi_spec("swaprel P R", sig, 2)
    with pytest.raises(UsageError):
        parse_phi_spec("renamevars x1:x9", sig, 2)
    with pytest.raises(UsageError):
        parse_phi_spec("sideways", sig, 2)


def test_eval_subcommand_pinned_output():
    code, text = run_command(["eval", fixture("m_p.kbm"),
                              "--vars", "x,y", "--formula", "P(x) & !P(y)"])
    assert code == EXIT_PASS
    assert "points: {(1,0)}" in text
    assert "count: 1" in text


def test_eval_rejects_bad_formula():
    code, text = run_command(["eval", fixture("m_p.kbm"),
                              "--vars", "x", "--formula", "Q(x)"])
    assert code == EXIT_DATA
    assert text.startswith("error:")


def test_closure_subcommand():
    code, text = run_command(["closure", fixture("m_p.kbm"),
                              "--vars", "x1,x2", "--points", "1,0"])
    assert code == EXIT_PASS
    assert "closure: {(1,0)}" in text
    code, text = run_command(["closure", fixture("m_eq.kbm"),
                              "--vars", "x1,x2", "--points", "0,0"])
    assert code == EXIT_PASS
    assert "closure: {(0,0), (1,1)}" in text


def test_lattice_subcommand():
    code, text = run_command(["lattice", fixture("m_p.kbm"), "--vars", "x1"])
    assert code == EXIT_PASS
    assert "size: 4" in text
    code, text = run_command(["lattice", fixture("m_p.kbm"), "--vars", "x1", "--dump"])
    assert "members:" in text and "0x" in text


def test_lattice_subcommand_pinned_output():
    code, text = run_command(["lattice", fixture("m_p.kbm"), "--vars", "x1"])
    assert code == EXIT_PASS
    assert text == "vars: x1\nsize: 4\nheight: 2\ndegrees: 2,2,2,2\nsaturated: yes"
    code, text = run_command(["lattice", fixture("m_neg.kbm"), "--vars", "x1,x2"])
    assert code == EXIT_PASS
    assert text == ("vars: x1, x2\nsize: 16\nheight: 4\n"
                    "degrees: 4,4,4,4,4,4,4,4,4,4,4,4,4,4,4,4\nsaturated: yes")


def test_duality_and_functor_subcommands():
    code, text = run_command(["duality", fixture("m_eq.kbm"), "--max-vars", "2"])
    assert code == EXIT_PASS
    assert "failures: none" in text
    code, text = run_command(["functor", fixture("m_neg.kbm"),
                              "--max-vars", "2", "--depth", "1"])
    assert code == EXIT_PASS


def test_equiv_pinned_witness_output():
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm")])
    assert code == EXIT_PASS
    assert "phi: swap P Q" in text
    assert "verdict: EQUIVALENT_WITNESSED" in text


def test_equiv_pinned_refutation_output():
    code, text = run_command(["equiv", fixture("m_p.kbm"), fixture("m_p0.kbm"),
                              "--max-vars", "1"])
    assert code == EXIT_FAIL
    assert "lattice size 4 vs 2 at X={x1}" in text
    assert "4 vs 2 at |X|=1" in text


def test_equiv_modes_and_phi():
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                              "--mode", "iso"])
    assert code == EXIT_FAIL
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                              "--mode", "lae"])
    assert code == EXIT_PASS and "swap P Q" in text
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                              "--phi", "identity"])
    assert code == EXIT_UNKNOWN
    assert "verdict: UNKNOWN" in text
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                              "--mode", "iso", "--phi", "identity"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("mode,label", [("info", "informational"), ("lae", "automorphic")])
def test_a_pinned_phi_skips_the_carrier_path_in_both_modes(mode, label):
    """With --phi both modes search that phi alone, so even a self-pair is
    witnessed by a functor isomorphism, not a carrier map; the report names
    the mode asked for."""
    code, text = run_command(["equiv", fixture("m_eq.kbm"), fixture("m_eq.kbm"), "--mode", mode,
                              "--phi", "identity", "--format", "machine"])
    assert code == EXIT_PASS
    assert text.splitlines() == [
        "verdict: EQUIVALENT_WITNESSED",
        f"mode: {label}",
        "bounds.n_max: 2",
        "bounds.depth: 2",
        "witness.kind: functor isomorphism",
        "witness.phi: identity",
        "witness.alphas: |X|=1: 2 filters; |X|=2: 4 filters",
        "note.1: supported automorphism class: relation permutations and variable renamings",
    ]


BOUNDED_RUNS = {
    "eval": ["eval", "m_p.kbm", "--vars", "x1,x2", "--formula", "true"],
    "closure": ["closure", "m_p.kbm", "--vars", "x1,x2", "--points", "1,0"],
    "lattice": ["lattice", "m_p.kbm", "--vars", "x1,x2"],
    "duality": ["duality", "m_p.kbm"],
    "functor": ["functor", "m_p.kbm"],
    "equiv": ["equiv", "m_p.kbm", "m_p.kbm"],
    "equiv-lae": ["equiv", "m_p.kbm", "m_p.kbm", "--mode", "lae"],
    "equiv-phi": ["equiv", "m_p.kbm", "m_p.kbm", "--phi", "identity"],
}


@pytest.mark.parametrize("run,by_env", [(run, False) for run in BOUNDED_RUNS] + [("equiv", True)])
def test_every_command_honours_the_point_bound(run, by_env, monkeypatch):
    """Each command reads the point bound from its knowledge base: m_p over
    two variables has 4 points, past a bound of 3, from the flag or from
    KBGEO_MAX_POINTS."""
    argv = [fixture(a) if a.endswith(".kbm") else a for a in BOUNDED_RUNS[run]]
    if by_env:
        monkeypatch.setenv("KBGEO_MAX_POINTS", "3")
    else:
        argv += ["--max-points", "3"]
    assert run_command(argv) == (EXIT_DATA, "error: 4 points exceed the bound 3")


def test_carrier_isomorphism_builds_no_space():
    code, text = run_command(["equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--mode", "iso",
                              "--max-points", "3"])
    assert code == EXIT_PASS and "verdict: EQUIVALENT_WITNESSED" in text


def test_an_iso_command_resolves_no_knowledge_base():
    """`equiv --mode iso` compares the two models alone: it neither builds
    a knowledge base nor replaces the pair its thread keeps."""
    knowledge_base(model_p(), 2, 1)
    kept = semantics._kept.kbs
    code, text = run_command(["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                              "--mode", "iso"])
    assert code == EXIT_FAIL and "verdict: INEQUIVALENT" in text
    assert semantics._kept.kbs is kept


def lattice_dump_runs() -> str:
    """`lattice --dump` on every fixture over x1, x1,x2 and x1,x2,x3 under the
    default bounds: per run a header line naming the file, the variables and
    the exit code, then the output."""
    names = sorted(path.name for path in FIXTURES.glob("*.kbm"))
    blocks = []
    for name, varlist in itertools.product(names, ("x1", "x1,x2", "x1,x2,x3")):
        code, text = run_command(["lattice", fixture(name), "--vars", varlist, "--dump"])
        blocks.append(f"## {name} {varlist} -> {code}\n{text}\n")
    return "".join(blocks)


def test_lattice_dump_on_all_fixtures(default_point_bound):
    assert lattice_dump_runs().splitlines() == DUMP_GOLDEN.read_text().splitlines()


def test_machine_format_is_flat_and_deterministic():
    argv = ["equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"), "--format", "machine"]
    code, first = run_command(argv)
    _, second = run_command(argv)
    assert code == EXIT_PASS
    assert first == second
    lines = dict(line.split(": ", 1) for line in first.splitlines())
    assert lines["verdict"] == VERDICT_WITNESSED
    assert lines["bounds.n_max"] == "2"
    assert lines["bounds.depth"] == "2"
    assert lines["witness.phi"] == "swap P Q"
    argv = ["equiv", fixture("m_p.kbm"), fixture("m_p0.kbm"),
            "--max-vars", "1", "--format", "machine"]
    _, refuted = run_command(argv)
    lines = dict(line.split(": ", 1) for line in refuted.splitlines())
    assert lines["refutation.values"] == "4 vs 2 at |X|=1"
    code, report = run_command(["duality", fixture("m_eq.kbm"), "--format", "machine"])
    assert "failures: 0" in report


def equiv_machine_runs() -> str:
    """`equiv --format machine` on every ordered pair of fixtures in modes iso,
    lae and info, under the default bounds: per run a header line naming the
    files, the mode and the exit code, then the output."""
    names = sorted(path.name for path in FIXTURES.glob("*.kbm"))
    blocks = []
    for first, second, mode in itertools.product(names, names, ("iso", "lae", "info")):
        code, text = run_command(["equiv", fixture(first), fixture(second),
                                  "--mode", mode, "--format", "machine"])
        blocks.append(f"## {first} {second} {mode} -> {code}\n{text}\n")
    return "".join(blocks)


def test_equiv_machine_output_on_all_fixture_pairs(default_point_bound):
    assert equiv_machine_runs().splitlines() == EQUIV_GOLDEN.read_text().splitlines()


def sweeps_machine_runs() -> str:
    """`duality` and `functor --format machine` on every fixture, at
    --max-vars 1 and 2 and --depth 0, 1 and 2: per run a header line naming
    the command, the file, the bounds and the exit code, then the output."""
    names = sorted(path.name for path in FIXTURES.glob("*.kbm"))
    blocks = []
    for name, command, n_max, depth in itertools.product(
            names, ("duality", "functor"), ("1", "2"), ("0", "1", "2")):
        code, text = run_command([command, fixture(name), "--max-vars", n_max,
                                  "--depth", depth, "--format", "machine"])
        blocks.append(f"## {command} {name} {n_max} {depth} -> {code}\n{text}\n")
    return "".join(blocks)


def test_sweeps_machine_output_on_all_fixtures(default_point_bound):
    assert sweeps_machine_runs().splitlines() == SWEEPS_GOLDEN.read_text().splitlines()


def test_usage_errors_exit_above_two():
    code, text = run_command(["equiv", fixture("m_p.kbm")])
    assert code == EXIT_USAGE and code > 2
    code, _ = run_command(["equiv", fixture("m_p.kbm"), fixture("m_p0.kbm"),
                           "--mode", "upside"])
    assert code == EXIT_USAGE
    code, _ = run_command(["lattice", fixture("m_p.kbm"), "--vars", "x1",
                           "--max-points", "0"])
    assert code == EXIT_USAGE
    code, _ = run_command(["eval", fixture("m_p.kbm"), "--vars", "x",
                           "--formula", "P(x"])
    assert code == EXIT_DATA


def test_point_bound_env_override(monkeypatch):
    monkeypatch.setenv("KBGEO_MAX_POINTS", "2")
    assert cli._env_max_points() == 2
    code, text = run_command(["eval", fixture("m_p.kbm"), "--vars", "x1,x2",
                              "--formula", "true"])
    assert code == EXIT_DATA
    monkeypatch.setenv("KBGEO_MAX_POINTS", "soon")
    with pytest.raises(DataError):
        cli._env_max_points()
    monkeypatch.delenv("KBGEO_MAX_POINTS")
    assert cli._env_max_points() == DEFAULT_MAX_POINTS


def test_the_point_bound_flag_overrides_the_environment(monkeypatch):
    """`--max-points` replaces the bound KBGEO_MAX_POINTS sets, but the
    variable is still read, so a bad value is an error even beside the flag."""
    argv = ["eval", fixture("m_p.kbm"), "--vars", "x1,x2", "--formula", "true"]
    monkeypatch.setenv("KBGEO_MAX_POINTS", "2")
    assert run_command(argv) == (EXIT_DATA, "error: 4 points exceed the bound 2")
    code, text = run_command(argv + ["--max-points", "4"])
    assert code == EXIT_PASS and "count: 4" in text.splitlines()
    monkeypatch.setenv("KBGEO_MAX_POINTS", "soon")
    assert run_command(argv + ["--max-points", "4"]) == \
        (EXIT_DATA, "error: KBGEO_MAX_POINTS must be a positive integer, got 'soon'")


def test_signature_mismatch_is_data_error():
    code, text = run_command(["equiv", fixture("m_p.kbm"), fixture("m_eq.kbm")])
    assert code == EXIT_DATA


def test_bad_point_bound_env_is_a_data_error(monkeypatch):
    monkeypatch.setenv("KBGEO_MAX_POINTS", "abc")
    code, text = run_command(["eval", fixture("m_p.kbm"), "--vars", "x", "--formula", "P(x)"])
    assert code == EXIT_DATA
    assert text == "error: KBGEO_MAX_POINTS must be a positive integer, got 'abc'"


def test_help_prints_beside_a_malformed_point_bound(monkeypatch, capsys):
    """A malformed KBGEO_MAX_POINTS is read only after the arguments parse,
    so help still prints, from its first line, with exit 0."""
    monkeypatch.setenv("KBGEO_MAX_POINTS", "abc")
    assert cli.main(["--help"]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("usage: kbgeo")


def test_a_self_pair_builds_each_lattice_once(monkeypatch, default_point_bound):
    """Equal models share one knowledge base: a self-pair decision at
    (3, 1) builds one algebra per size, through both deciders and through
    `equiv`, whose two files load to equal models."""
    builds = []
    build = lattice.generate_definable_algebra

    def counting(*args, **kwargs):
        builds.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(lattice, "generate_definable_algebra", counting)
    runs = [lambda: check_informational_equivalence(model_p(), model_p(), 3, 1).exit_code,
            lambda: check_automorphic_equivalence(model_p(), model_p(), None, 3, 1).exit_code,
            lambda: run_command(["equiv", fixture("m_p.kbm"), fixture("m_p.kbm"),
                                 "--max-vars", "3", "--depth", "1"])[0]]
    for run in runs:
        builds.clear()
        assert run() == EXIT_PASS
        assert [len(varset) for varset in builds] == [1, 2, 3]


CYCLE = """carrier: 0 1 2
flag with_equality off
op f 1
rel P 1
op f: 0 -> 1
op f: 1 -> 2
op f: 2 -> 0
rel P: 0
"""


def test_carrier_transport_on_capped_lattices_stops_with_unknown(tmp_path, default_point_bound):
    """Both knowledge bases have the same term depth cap, so the carrier
    transport relabels the capped lattice's atoms onto the other's atoms.
    It then walks the first model's pullbacks and stops at the first one
    that is not definable."""
    path = tmp_path / "cycle.kbm"
    path.write_text(CYCLE)
    code, text = run_command(["equiv", str(path), str(path), "--max-term-depth", "0",
                              "--format", "machine"])
    assert code == EXIT_UNKNOWN
    assert text.splitlines()[-1] == ("note.3: witness search stopped: pullback 0x4 of 0x1 "
                                     "along {x1 := f(x1)} is not definable over {x1}")


def test_running_out_of_memory_is_a_data_error(monkeypatch):
    """A MemoryError is an exceeded bound (exit 65), never a traceback whose
    exit code 1 would read as "inequivalent"."""
    def exhausted(args):
        raise MemoryError
    monkeypatch.delenv("KBGEO_MAX_POINTS", raising=False)
    monkeypatch.setitem(cli._RUNNERS, "equiv", exhausted)
    assert run_command(["equiv", fixture("m_p.kbm"), fixture("m_p.kbm")]) \
        == (EXIT_DATA, "error: out of memory within the given bounds")


def test_partial_lattice_note_leaves_the_carrier_witness_standing(default_point_bound):
    code, text = run_command(["equiv", fixture("m_neg.kbm"), fixture("m_neg.kbm"),
                              "--max-term-depth", "0", "--format", "machine"])
    assert code == EXIT_PASS
    assert text.splitlines() == [
        "verdict: EQUIVALENT_WITNESSED",
        "mode: informational",
        "bounds.n_max: 2",
        "bounds.depth: 2",
        "witness.kind: model isomorphism",
        "witness.map: 0->0 1->1",
        "witness.phi: identity",
        "witness.alphas: |X|=1: 4 filters; |X|=2: 16 filters",
        "note.1: supported automorphism class: relation permutations and variable renamings",
        "note.2: lattice generation hit the term depth bound; no refutation or automorphism"
        " witness is drawn from partial lattices",
    ]


@pytest.mark.parametrize("phi, env, code, line", [
    ("renamevars x1:x2,,x2:x1", None, EXIT_PASS, "witness.phi: renamevars[2] x1:x2,x2:x1"),
    ("identity", "0", EXIT_DATA, "error: KBGEO_MAX_POINTS must be a positive integer, got '0'"),
])
def test_an_empty_renaming_entry_is_skipped_and_a_zero_point_bound_refused(
        monkeypatch, phi, env, code, line):
    """An empty entry between two commas of a renaming is skipped; a point
    bound of 0 in the environment is refused as a malformed one is."""
    if env is None:
        monkeypatch.delenv("KBGEO_MAX_POINTS", raising=False)
    else:
        monkeypatch.setenv("KBGEO_MAX_POINTS", env)
    got, text = run_command(["equiv", fixture("m_neg.kbm"), fixture("m_neg.kbm"), "--phi", phi,
                             "--format", "machine"])
    assert got == code
    assert line in text.splitlines()
