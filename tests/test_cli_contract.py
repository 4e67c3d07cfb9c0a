"""The command line's contract: each entry below is one run of `kbgeo`, with
the exit code and the lines it must print.

Every entry runs as `python -m kbgeo.cli` in a subprocess whose PYTHONPATH
is the directory holding the `kbgeo` package this module imported.  From the
source tree (`PYTHONPATH=src`) that is `src/`; after `pip install .` it is
the installed package.  A subprocess is also the only way to give a run its
timeout and address-space limit.

A new assertion about the command line goes here, as one more entry.
"""

import dataclasses
import os
import pathlib
import random
import re
import resource
import shutil
import subprocess
import sys

import pytest

import kbgeo
from kbgeo.cli import print_model
from helpers import cfi_pair, two_six_cycles

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PACKAGE_ROOT = str(pathlib.Path(kbgeo.__file__).resolve().parent.parent)
TIMEOUT = 60  # seconds, for an entry that sets none


@dataclasses.dataclass(frozen=True)
class Entry:
    """One run of `kbgeo ARGV` in a new directory holding `models` (file
    name to text), with only PYTHONPATH, PYTHONDONTWRITEBYTECODE when the
    test run has it set, and `env` in its environment.  It
    must exit with `code` within `timeout` seconds, and its output, stdout
    and stderr merged, must hold each of `lines` as a whole line.  If
    `output` is given it is the whole output, line for line, where a pattern
    must match its line in full.  `address_space_kib` is the limit
    `ulimit -v` would set."""
    name: str
    argv: tuple
    code: int = 0
    lines: tuple = ()
    output: tuple | None = None
    models: dict = dataclasses.field(default_factory=dict)
    env: dict = dataclasses.field(default_factory=dict)
    timeout: float = TIMEOUT
    address_space_kib: int | None = None


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def cycle(size: int, p: int = 0, seed: int | None = None) -> str:
    """The f `size`-cycle on 0..size-1, with P = {p}; with a seed, its
    elements renamed by a shuffle drawn from it."""
    name = list(range(size))
    if seed is not None:
        random.Random(seed).shuffle(name)
    return (f"carrier: {' '.join(map(str, range(size)))}\nop f 1\nrel P 1\n"
            + "".join(f"op f: {name[i]} -> {name[(i + 1) % size]}\n" for i in range(size))
            + f"rel P: {name[p]}\n")


def graph(edges) -> str:
    """The 6-element model whose binary R holds on each edge in both
    directions."""
    return ("carrier: 0 1 2 3 4 5\nrel R 2\n"
            + "".join(f"rel R: {a},{b}\nrel R: {b},{a}\n" for a, b in edges))


# A 3-element pair in which atomic formulas name every element, so every
# point over three variables is its own atom: 27 atoms, 2^27 members.
NAMED = "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel P: 1\nrel Q: 0\n"
NAMED_IMAGE = "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel P: 2\nrel Q: 0\n"
R1 = "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel R 1\nrel P: 0\nrel Q: 0\nrel Q: 1\n"
R2 = "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel R 1\nrel Q: 0\nrel R: 0\nrel R: 1\n"
P3 = "carrier: 0 1 2\nrel P 1\nrel P: 0\n"
# P = {1}, whose name the relation-named-variable entries also give a variable.
RELATION_P = "carrier: 0 1 2\nrel P 1\nrel P: 1\n"
# Four elements, each with its own pair of P and Q values, so over two
# variables the seeds alone make each of the 16 points an atom.
PQ4 = "carrier: 0 1 2 3\nrel P 1\nrel Q 1\nrel P: 0\nrel P: 1\nrel Q: 1\nrel Q: 2\n"
# The Cai-Fuerer-Immerman pairs over K3 and K4, 18 and 40 elements with a
# symmetric binary R: not isomorphic, each as the files a.kbm and b.kbm.
K3_CFI, K4_CFI = ({name: print_model(model) for name, model in zip(("a.kbm", "b.kbm"), pair)}
                  for pair in (cfi_pair([(0, 1), (0, 2), (1, 2)]),
                               cfi_pair([(a, b) for a in range(4) for b in range(a + 1, 4)])))
# Two 6-cycles of f with R = {(a, f(f(a)))} on the first cycle against
# R = {(b, f(f(f(b))))} on the second, as the files r2.kbm and r3.kbm.
SIX_CYCLES = {name: print_model(model) for name, model in zip(("r2.kbm", "r3.kbm"),
                                                              two_six_cycles())}
C6 = graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
TT = graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
# The model with f: 0->0, 1->1, 2->0 and P everything: over {x1} its algebra
# cannot tell 0 from 2, so pulling {(0, 0)} back along x1 := x1, x2 := x1 and
# along the substitutions through f is not definable.
FU = ("carrier: 0 1 2\nop f 1\nrel P 1\nop f: 0 -> 0\nop f: 1 -> 1\nop f: 2 -> 0\n"
      "rel P: 0\nrel P: 1\nrel P: 2\n")
FU_DUALITY = """report: duality
object: canonical variable sets of sizes 1..2
sizes: 4 512
morphism family: least assignments for substitutions of depth <= 1
checked: 360
failures: 4
failure.1: no least morphism between sizes 2->1: pullback 0x1 of 0x1 along {x1 := x1, x2 := x1} \
is not definable over {x1}
failure.2: no least morphism between sizes 2->1: pullback 0x1 of 0x1 along {x1 := x1, x2 := f(x1)} \
is not definable over {x1}
failure.3: no least morphism between sizes 2->1: pullback 0x1 of 0x1 along {x1 := f(x1), x2 := x1} \
is not definable over {x1}
failure.4: no least morphism between sizes 2->1: pullback 0x5 of 0x1 along \
{x1 := f(x1), x2 := f(x1)} is not definable over {x1}"""

FU_FUNCTOR = """report: push functoriality
object: canonical variable sets of sizes 1..2
substitution depth: 1
triples: 176496
checked: 177012
failures: 9
failure.1: push along {x1 := x1, x2 := x1} then {x1 := x1}: pullback 0x1 of 0x1 along \
{x1 := x1, x2 := x1} is not definable over {x1}
failure.2: push along {x1 := x1, x2 := x1} then {x1 := f(x1)}: pullback 0x5 of 0x1 along \
{x1 := f(x1), x2 := f(x1)} is not definable over {x1}
failure.3: push along {x1 := x1, x2 := f(x1)} then {x1 := x1}: pullback 0x1 of 0x1 along \
{x1 := x1, x2 := f(x1)} is not definable over {x1}
failure.4: push along {x1 := x1, x2 := f(x1)} then {x1 := f(x1)}: pullback 0x5 of 0x1 along \
{x1 := f(x1), x2 := f(f(x1))} is not definable over {x1}
failure.5: push along {x1 := f(x1), x2 := x1} then {x1 := x1}: pullback 0x1 of 0x1 along \
{x1 := f(x1), x2 := x1} is not definable over {x1}
failure.6: push along {x1 := f(x1), x2 := x1} then {x1 := f(x1)}: pullback 0x5 of 0x1 along \
{x1 := f(f(x1)), x2 := f(x1)} is not definable over {x1}
failure.7: push along {x1 := f(x1), x2 := f(x1)} then {x1 := f(x1)}: pullback 0x5 of 0x1 along \
{x1 := f(f(x1)), x2 := f(f(x1))} is not definable over {x1}
failure.8: push along {x1 := x1, x2 := f(x2)} then {x1 := x1, x2 := f(x1)}: pullback 0x1 of 0x1 \
along {x1 := x1, x2 := f(f(x1))} is not definable over {x1}
failure.9: push along {x1 := f(x1), x2 := x2} then {x1 := f(x1), x2 := x1}: pullback 0x1 of 0x1 \
along {x1 := f(f(x1)), x2 := x1} is not definable over {x1}"""

# Two binary-op models whose clones once walled the build off, each with
# P = {0}: NAND on two elements (all 2^(2^n) functions over n variables),
# and the 3-element g with rows 1 0 1 / 2 0 0 / 2 0 1.
NAND = ("carrier: 0 1\nop g 2\nrel P 1\n"
        + "".join(f"op g: {a},{b} -> {1 - (a & b)}\n" for a in (0, 1) for b in (0, 1))
        + "rel P: 0\n")
CLONE_WALL = ("carrier: 0 1 2\nop g 2\nrel P 1\n"
              + "".join(f"op g: {a},{b} -> {v}\n" for a, row in enumerate(("101", "200", "201"))
                        for b, v in enumerate(row))
              + "rel P: 0\n")

R10 = ("carrier: 0 1\n" + "".join(f"rel R{i} 1\n" for i in range(1, 11))
       + "".join(f"rel R{i}: {i % 2}\n" for i in range(1, 11)))

CLASS_NOTE = "note.1: supported automorphism class: relation permutations and variable renamings"


def header(verdict: str, mode: str, n_max: int, depth: int) -> tuple:
    """The first lines of an `equiv --format machine` report in modes lae
    and info."""
    return (f"verdict: {verdict}", f"mode: {mode}", f"bounds.n_max: {n_max}",
            f"bounds.depth: {depth}")


CONTRACT = [
    # A fixture pair decided by the swap of P and Q (exit 0: witnessed).
    Entry("swap-pair", ("equiv", fixture("m_pq1.kbm"), fixture("m_pq2.kbm"),
                        "--format", "machine"),
          lines=("witness.phi: swap P Q",)),
    # A witness whose phi renames variables, so each composite's transport
    # runs along its renaming conjugate (exit 0: witnessed by that phi).
    Entry("renamevars", ("equiv", fixture("m_neg.kbm"), fixture("m_neg.kbm"),
                         "--phi", "renamevars x1:x2,x2:x1", "--format", "machine"),
          lines=("witness.phi: renamevars[2] x1:x2,x2:x1",)),
    # Every command reads the point bound from the model's knowledge base,
    # set by the environment or by the flag: m_p over two variables has 4
    # points, past a bound of 3 (exit 65, with the bound named).
    Entry("point-bound-env", ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm")),
          env={"KBGEO_MAX_POINTS": "3"}, code=65,
          output=("error: 4 points exceed the bound 3",)),
    Entry("point-bound-flag", ("functor", fixture("m_p.kbm"), "--max-points", "3"),
          code=65, output=("error: 4 points exceed the bound 3",)),
    # The flag overrides the environment: beside KBGEO_MAX_POINTS=3, which
    # alone stops m_p over two variables, --max-points 4 lets the sweep run
    # (exit 0: passed).
    Entry("point-bound-flag-wins", ("functor", fixture("m_p.kbm"), "--max-points", "4",
                                    "--format", "machine"),
          env={"KBGEO_MAX_POINTS": "3"}, lines=("failures: 0",)),
    # The sweeps and the deciders refuse the first size past the point bound
    # before they build any object: m_neg over 15 variables has 32768
    # points, and its 14 smaller objects take a minute to build (exit 65, at
    # once).  A pair is refused at the first model's first such size, then
    # at the second's: m_p first, though the 3-element model of P passes the
    # bound at 10 variables, with 59049 points.
    Entry("point-bound-before-any-object", ("functor", fixture("m_neg.kbm"), "--max-vars", "16",
                                            "--max-points", "20000"),
          code=65, output=("error: 32768 points exceed the bound 20000",), timeout=10),
    Entry("point-bound-before-any-object-duality",
          ("duality", fixture("m_neg.kbm"), "--max-vars", "20", "--max-points", "100000"),
          code=65, output=("error: 131072 points exceed the bound 100000",), timeout=10),
    Entry("point-bound-before-any-object-equiv",
          ("equiv", fixture("m_p.kbm"), "p3.kbm", "--max-vars", "16", "--max-points", "20000"),
          models={"p3.kbm": RELATION_P}, code=65,
          output=("error: 32768 points exceed the bound 20000",), timeout=10),
    # The environment is read only after the arguments parse, so help prints
    # beside a malformed KBGEO_MAX_POINTS (exit 0), and a usage error, from
    # the parser or a bound flag, wins over the bad value (exit 64).
    Entry("help-beside-bad-env", ("--help",), env={"KBGEO_MAX_POINTS": "abc"},
          lines=("usage: kbgeo [-h] {eval,closure,lattice,duality,functor,equiv} ...",)),
    Entry("parser-error-beside-bad-env",
          ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--bogus"),
          env={"KBGEO_MAX_POINTS": "abc"}, code=64,
          output=("usage error: unrecognized arguments: --bogus",)),
    Entry("bound-flag-error-beside-bad-env",
          ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--max-vars", "0"),
          env={"KBGEO_MAX_POINTS": "abc"}, code=64,
          output=("usage error: --max-vars must be positive",)),
    Entry("bad-env", ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm")),
          env={"KBGEO_MAX_POINTS": "abc"}, code=65,
          output=("error: KBGEO_MAX_POINTS must be a positive integer, got 'abc'",)),
    # A formula nested past the parser's bound, 600 or 1200 negations deep,
    # is a data error, not a traceback (exit 65, with the offset named).
    *(Entry(f"nested-{count}", ("eval", fixture("m_p.kbm"), "--vars", "x1",
                                "--formula", "!" * count + "P(x1)"),
            code=65, output=("error: input nested deeper than 200 levels (at offset 200)",))
      for count in (600, 1200)),
    # A character no token starts with is a data error at its offset, as the
    # formula text is read (exit 65).
    Entry("unexpected-character", ("eval", fixture("m_p.kbm"), "--vars", "x1",
                                   "--formula", "P(x1) & \u00b2x1"),
          code=65, output=("error: unexpected character '\u00b2' (at offset 8)",)),
    # A variable named like a constant would print formulas that read back
    # otherwise, so no command takes one (exit 65, with both named).
    *(Entry(f"shadowed-constant-{command}", (command, "c.kbm", "--vars", "c", *flags),
            models={"c.kbm": "carrier: 0 1\nop c 0\nop c: -> 1\n"}, code=65,
            output=("error: variable c has the name of the constant c",))
      for command, flags in (("lattice", ("--dump",)), ("eval", ("--formula", "c = c")))),
    # A variable name that is an identifier but not one name token, here
    # "x" and a combining accent, could never be read back in a formula
    # (exit 64).
    Entry("unreadable-variable", ("eval", fixture("m_p.kbm"), "--vars", "x1,xe\u0301",
                                  "--formula", "P(x1)"),
          code=64,
          output=("usage error: variable name 'xe\u0301' does not scan as one name token",)),
    # A variable named like a relation: an atom always opens its arguments,
    # so the name not followed by `(` is read as the variable, and every
    # witness the dump prints reads back (exit 0).
    Entry("relation-named-variable-eval", ("eval", "p.kbm", "--vars", "P,x1",
                                           "--formula", "P = x1"),
          models={"p.kbm": RELATION_P}, lines=("points: {(0,0), (1,1), (2,2)}",)),
    Entry("relation-named-variable-dump", ("lattice", "p.kbm", "--vars", "P,x1", "--dump"),
          models={"p.kbm": RELATION_P},
          lines=("size: 32", "0x101 2 !P(P) & (!P(x1) & P = x1)")),
    # eval values a substitution node's body over its source space in the
    # flag's bound: three variables over m_p are 8 points, past a bound of 4
    # (exit 65, with the bound named) and within one of 8 (exit 0).
    Entry("subst-source-past-bound",
          ("eval", fixture("m_p.kbm"), "--vars", "x1", "--formula",
           "subst {x1 := x1, x2 := x1, x3 := x1} P(x3)", "--max-points", "4"),
          code=65, output=("error: 8 points exceed the bound 4",)),
    Entry("subst-source-within-bound",
          ("eval", fixture("m_p.kbm"), "--vars", "x1", "--formula",
           "subst {x1 := x1, x2 := x1, x3 := x1} P(x3)", "--max-points", "8"),
          lines=("count: 1", "points: {(1)}")),
    # The two category sweeps (exit 0: passed).
    Entry("duality-m_p", ("duality", fixture("m_p.kbm"), "--format", "machine"),
          lines=("failures: 0",)),
    Entry("functor-m_neg", ("functor", fixture("m_neg.kbm"), "--format", "machine"),
          lines=("failures: 0",)),
    # The widest composite loop the fixtures give: 133,300 composable pairs
    # over four variables, each checked on image dicts (exit 0: passed).
    Entry("duality-m_p-4-0", ("duality", fixture("m_p.kbm"), "--max-vars", "4", "--depth", "0",
                              "--format", "machine"),
          lines=("checked: 133798", "failures: 0")),
    # The widest push sweep the fixtures give: each composable pair over four
    # variables is one block that holds three pullback tables, its two
    # factors' and its composite's (exit 0: passed).
    Entry("functor-m_p-4-0", ("functor", fixture("m_p.kbm"), "--max-vars", "4", "--depth", "0",
                              "--format", "machine"),
          lines=("checked: 6508823900", "failures: 0")),
    # The widest unary-op composite loops the fixtures give: neg over three
    # variables, where each composable pair finds its composite's table by
    # the composite's interned images (exit 0: passed).
    Entry("duality-m_neg-3-1", ("duality", fixture("m_neg.kbm"), "--max-vars", "3",
                                "--depth", "1", "--format", "machine"),
          lines=("checked: 79535", "failures: 0")),
    Entry("functor-m_neg-3-1", ("functor", fixture("m_neg.kbm"), "--max-vars", "3",
                                "--depth", "1", "--format", "machine"),
          lines=("checked: 17056500", "failures: 0")),
    # The same loops at depth 2, where x1 := neg(neg(x1)) and x1 := x1 share
    # one pullback table's class: each triple of classes is checked once, and
    # every pair still counts (exit 0: passed).
    Entry("duality-m_neg-3-2", ("duality", fixture("m_neg.kbm"), "--max-vars", "3",
                                "--depth", "2", "--format", "machine"),
          lines=("checked: 830397", "failures: 0")),
    Entry("functor-m_neg-3-2", ("functor", fixture("m_neg.kbm"), "--max-vars", "3",
                                "--depth", "2", "--format", "machine"),
          lines=("checked: 189863628", "failures: 0")),
    # NAMED against its relabelling, and against itself, over three
    # variables, written outside fixtures/ (the goldens glob
    # fixtures/*.kbm).  The decision holds 2^27 members by their atoms
    # (exit 0: witnessed), and both sweeps check atoms only (exit 0:
    # passed).  The triple count is the closed form of the sum over sizes
    # a, b, c of b^a c^b 2^k_a, with k = 3, 9, 27 atoms.
    Entry("named-pair-3-1", ("equiv", "a.kbm", "b.kbm", "--max-vars", "3", "--depth", "1",
                             "--format", "machine"),
          models={"a.kbm": NAMED, "b.kbm": NAMED_IMAGE},
          lines=("verdict: EQUIVALENT_WITNESSED",)),
    Entry("named-self-3-1", ("equiv", "a.kbm", "a.kbm", "--max-vars", "3", "--depth", "1",
                             "--format", "machine"),
          models={"a.kbm": NAMED},
          lines=("witness.alphas: |X|=1: 8 filters; |X|=2: 512 filters; "
                 "|X|=3: 134217728 filters",)),
    *(Entry(f"named-duality-3-{form}", ("duality", "a.kbm", "--max-vars", "3", "--format", form),
            models={"a.kbm": NAMED}, lines=("sizes: 8 512 134217728",))
      for form in ("machine", "text")),
    Entry("named-functor-3", ("functor", "a.kbm", "--max-vars", "3", "--format", "machine"),
          models={"a.kbm": NAMED}, lines=("failures: 0",)),
    Entry("named-functor-3-1", ("functor", "a.kbm", "--max-vars", "3", "--depth", "1"),
          models={"a.kbm": NAMED}, lines=("triples: 146297522288",)),
    # The dump and the profile's degree line list every member, so both stop
    # at the member bound (exit 65).
    *(Entry(f"named-lattice-3{flag}", ("lattice", "a.kbm", "--vars", "x1,x2,x3", *flags),
            models={"a.kbm": NAMED}, code=65,
            output=("error: 134217728 members exceed the bound 1048576",))
      for flag, flags in (("-dump", ("--dump",)), ("", ()))),
    # The same model over two variables: each of its nine points is an atom,
    # so the dump lists 512 members, a size the goldens' 2-element fixtures
    # never reach (exit 0: every member listed, sorted by mask, each with its
    # count of points).
    Entry("named-dump-2", ("lattice", "a.kbm", "--vars", "x1,x2", "--dump"),
          models={"a.kbm": NAMED},
          output=("vars: x1, x2", "size: 512", "height: 9", "degrees: " + ",".join(["9"] * 512),
                  "saturated: yes", "members:", "0x0 0 false",
                  *(re.compile(rf"0x{mask:x} {mask.bit_count()} \S.*") for mask in range(1, 511)),
                  "0x1ff 9 true")),
    # A discrete partition from the seeds: the build makes no projection cut,
    # and the dump lists all 65,536 members within 900 MB of address space
    # (exit 0).
    Entry("discrete-dump-2", ("lattice", "pq.kbm", "--vars", "x1,x2", "--dump"),
          models={"pq.kbm": PQ4},
          lines=("size: 65536", "0x0 0 false", "0x1 1 P(x1) & (P(x2) & (!Q(x1) & !Q(x2)))",
                 "0xffff 16 true"),
          address_space_kib=900000),
    # A constant c = 1 beside P = {0}: the constant's value column holds c
    # at every point, so x1 = c cuts the complement of P (exit 0).
    Entry("constant-dump", ("lattice", "c.kbm", "--vars", "x1", "--dump"),
          models={"c.kbm": "carrier: 0 1 2\nop c 0\nrel P 1\nop c: -> 1\nrel P: 0\n"},
          lines=("size: 8", "0x2 1 !P(x1) & x1 = c")),
    # A 3-element pair on which every supported phi fails at the atom
    # constraints, so the search runs to its end: the identity, then the
    # relation permutation, and no renaming family, since renamings are
    # inner (exit 2: UNKNOWN, with the class note alone).
    Entry("exhausted-search", ("equiv", "c.kbm", "d.kbm", "--max-vars", "3", "--depth", "1",
                               "--format", "machine"),
          models={"c.kbm": "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel P: 0\nrel Q: 1\n",
                  "d.kbm": "carrier: 0 1 2\nrel P 1\nrel Q 1\nrel P: 0\nrel Q: 0\nrel Q: 1\n"},
          code=2, output=(*header("UNKNOWN", "informational", 3, 1), CLASS_NOTE)),
    # A constant f = 1 against f swapping 0 and 2, both with P everywhere:
    # over one variable phi's map meets the atom constraints and fails the
    # square along x1 := f(x1) (exit 2: UNKNOWN, with the class note
    # alone).
    Entry("failed-square", ("equiv", "fc.kbm", "fi.kbm", "--mode", "lae", "--max-vars", "1",
                            "--depth", "1", "--format", "machine"),
          models={"fc.kbm": "carrier: 0 1 2\nop f 1\nrel P 1\nop f: 0 -> 1\nop f: 1 -> 1\n"
                            "op f: 2 -> 1\nrel P: 0\nrel P: 1\nrel P: 2\n",
                  "fi.kbm": "carrier: 0 1 2\nop f 1\nrel P 1\nop f: 0 -> 2\nop f: 1 -> 1\n"
                            "op f: 2 -> 0\nrel P: 0\nrel P: 1\nrel P: 2\n"},
          code=2, output=(*header("UNKNOWN", "automorphic", 1, 1), CLASS_NOTE)),
    # A 3-cycle of the relations, P, Q, R = {0}, {0, 1}, {} against {}, {0},
    # {0, 1}: no swap matches the atoms, so both modes witness the pair by
    # the cycle, named as a relation permutation (exit 0).
    *(Entry(f"relperm-{mode}", ("equiv", "r1.kbm", "r2.kbm", "--mode", mode,
                                "--format", "machine"),
            models={"r1.kbm": R1, "r2.kbm": R2},
            output=(*header("EQUIVALENT_WITNESSED", label, 2, 2),
                    "witness.kind: functor isomorphism",
                    "witness.phi: relperm P->Q,Q->R,R->P",
                    "witness.alphas: |X|=1: 8 filters; |X|=2: 512 filters", CLASS_NOTE))
      for mode, label in (("lae", "automorphic"), ("info", "informational"))),
    # m_p against P = {0} on three elements: isomorphism mode finds no
    # carrier bijection, and the lattices first differ in size over two
    # variables, 16 against 32 (exit 1 in both modes).
    Entry("carrier-sizes-iso", ("equiv", fixture("m_p.kbm"), "p3.kbm", "--mode", "iso",
                                "--format", "machine"),
          models={"p3.kbm": P3}, code=1,
          output=("verdict: INEQUIVALENT", "mode: isomorphism",
                  "refutation.invariant: model isomorphism",
                  "refutation.detail: no carrier bijection preserves every table")),
    Entry("carrier-sizes-info", ("equiv", fixture("m_p.kbm"), "p3.kbm", "--mode", "info",
                                 "--format", "machine"),
          models={"p3.kbm": P3}, code=1,
          output=(*header("INEQUIVALENT", "informational", 2, 2),
                  "refutation.invariant: lattice size",
                  "refutation.var_count: 2", "refutation.left: 16", "refutation.right: 32",
                  "refutation.values: 16 vs 32 at |X|=2",
                  "refutation.summary: lattice size 16 vs 32 at X={x1, x2}", CLASS_NOTE)),
    # Two self-decisions whose witness is Boolean with the identity phi, so
    # its naturality squares settle the functor laws and no description
    # functor runs (exit 0: witnessed): the f 3-cycle with P = {1} over
    # three variables, and m_p over five.
    Entry("boolean-cycle-3-1", ("equiv", "fp.kbm", "fp.kbm", "--max-vars", "3", "--depth", "1",
                                "--format", "machine"),
          models={"fp.kbm": cycle(3, p=1)}, lines=("verdict: EQUIVALENT_WITNESSED",)),
    Entry("m_p-5-1", ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--max-vars", "5",
                      "--depth", "1", "--format", "machine"),
          lines=("verdict: EQUIVALENT_WITNESSED",)),
    # The f 5-cycle with P = {0} over three variables in automorphic mode:
    # each size has one candidate, phi's map, so the search holds no
    # candidate list (exit 0: witnessed by the identity, in 2 GB of address
    # space).
    Entry("cycle-5-lae", ("equiv", "c5.kbm", "c5.kbm", "--mode", "lae", "--max-vars", "3",
                          "--depth", "1", "--format", "machine"),
          models={"c5.kbm": cycle(5)}, lines=("witness.phi: identity",),
          address_space_kib=2000000),
    # The f 12-cycle with P = {0} against its relabelling by a seeded
    # shuffle, in automorphic mode over one variable: each atom goes where
    # phi sends its witness formula, so the search tries one map per phi,
    # not the 10! bijections between the atoms that no atomic formula of
    # depth 1 tells apart (exit 0: witnessed, within 10 s).
    Entry("cycle-12-shuffled-lae", ("equiv", "c12.kbm", "s12.kbm", "--mode", "lae",
                                    "--max-vars", "1", "--depth", "1", "--format", "machine"),
          models={"c12.kbm": cycle(12), "s12.kbm": cycle(12, seed=12)},
          lines=("verdict: EQUIVALENT_WITNESSED",), timeout=10),
    # Two 6-cycles of f with R = {(a, f^2(a))} on the first against R =
    # {(b, f^3(b))} on the second.  Over one variable each model has two
    # atoms, the cycle with R and the other.  Phi's map sends the first
    # model's R(x1, f(f(x1))) atom to the empty set, so no phi is witnessed
    # at depth 1, and at depth 2 that atomic formula's constraint clashes
    # (exit 2: UNKNOWN, with the class note alone).
    *(Entry(f"six-cycles-1-{depth}", ("equiv", "r2.kbm", "r3.kbm", "--max-vars", "1",
                                      "--depth", str(depth), "--format", "machine"),
            models=SIX_CYCLES, code=2,
            output=(*header("UNKNOWN", "informational", 1, depth), CLASS_NOTE))
      for depth in (1, 2)),
    # A 2-element self-pair with ten unary relations, Ri = {i mod 2}, in
    # automorphic mode: the relation permutations stream, so the decision
    # stops at the identity and builds none of the other 10! - 1 phis
    # (exit 0: witnessed, within 10 s and 900 MB of address space).
    Entry("ten-relations-lae", ("equiv", "r10.kbm", "r10.kbm", "--mode", "lae", "--max-vars", "1",
                                "--depth", "0", "--format", "machine"),
          models={"r10.kbm": R10}, lines=("witness.phi: identity",),
          timeout=10, address_space_kib=900000),
    # The f 12-cycle with P = {0} against itself in isomorphism mode: the
    # carrier maps stream in lexicographic order, so the identity, the
    # first, ends the search (exit 0: witnessed, within 10 s).
    Entry("cycle-12-iso", ("equiv", "c12.kbm", "c12.kbm", "--mode", "iso", "--format", "machine"),
          models={"c12.kbm": cycle(12)}, lines=("verdict: EQUIVALENT_WITNESSED",), timeout=10),
    # The f 12-cycle with P = {0} against P = {11}, in isomorphism mode and
    # in the default mode: the carrier search ends each branch at its first
    # broken fact, so it reaches the one isomorphism, the shift back by one,
    # long before the 12! maps (exit 0: witnessed, within 10 s).
    *(Entry(f"cycle-12-shift{suffix}",
            ("equiv", "c12.kbm", "c12s.kbm", *mode, "--format", "machine"),
            models={"c12.kbm": cycle(12), "c12s.kbm": cycle(12, p=11)}, timeout=10,
            lines=("witness.map: 0->11 1->0 2->1 3->2 4->3 5->4 "
                   "6->5 7->6 8->7 9->8 10->9 11->10",))
      for suffix, mode in (("-iso", ("--mode", "iso")), ("", ()))),
    # The CFI pairs in isomorphism mode: the carrier search refutes each one
    # (exit 1, within 10 s).
    *(Entry(f"cfi-{base}-iso", ("equiv", "a.kbm", "b.kbm", "--mode", "iso", "--format", "machine"),
            models=models, code=1, lines=("verdict: INEQUIVALENT",), timeout=10)
      for base, models in (("k3", K3_CFI), ("k4", K4_CFI))),
    # The K3 pair in the default mode over one and two variables at depth 0:
    # the carrier search refutes it, and the lattice search witnesses it by
    # the identity with alphas that no carrier map gives (exit 0, within
    # 10 s).
    *(Entry(f"cfi-k3-{n}-0", ("equiv", "a.kbm", "b.kbm", "--max-vars", str(n), "--depth", "0",
                              "--format", "machine"),
            models=K3_CFI, timeout=10,
            lines=("witness.kind: functor isomorphism", "witness.phi: identity",
                   f"witness.alphas: {alphas}"))
      for n, alphas in ((1, "|X|=1: 2 filters"), (2, "|X|=1: 2 filters; |X|=2: 8 filters"))),
    # The same pair over three variables, 5,832 points each, the largest
    # build an entry pins: 56 atoms against 164 refute it by lattice size
    # (exit 1, within 10 s).
    Entry("cfi-k3-3-0", ("equiv", "a.kbm", "b.kbm", "--max-vars", "3", "--depth", "0",
                         "--format", "machine"),
          models=K3_CFI, code=1, timeout=10,
          lines=("refutation.invariant: lattice size", "refutation.var_count: 3",
                 "refutation.left: 72057594037927936",
                 "refutation.right: 23384026197294446691258957323460528314494920687616")),
    # m_p against itself in automorphic mode over ten variables: 1,024
    # atoms, each sent where phi sends its witness formula (exit 0:
    # witnessed by the identity, within 10 s).
    Entry("m_p-10-1-lae", ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--mode", "lae",
                           "--max-vars", "10", "--depth", "1", "--format", "machine"),
          lines=("witness.phi: identity",), timeout=10),
    # A self-pair whose carrier transport meets a pullback that is not
    # definable: the transport walks the first model's pullbacks and stops
    # at the first such one (exit 2: UNKNOWN, with that pullback's note).
    Entry("undefinable-equiv", ("equiv", "fu.kbm", "fu.kbm", "--max-vars", "2", "--depth", "1",
                                "--format", "machine"),
          models={"fu.kbm": FU}, code=2,
          output=(*header("UNKNOWN", "informational", 2, 1), CLASS_NOTE,
                  "note.2: witness search stopped: pullback 0x1 of 0x1 along "
                  "{x1 := x1, x2 := x1} is not definable over {x1}")),
    # The sweeps on the same model fail on those pullbacks: each is a failure
    # line, numbered from 1 in the machine format (exit 1).  The push
    # sweep's atom run records a failure, so the failing blocks rerun over
    # every member and each undefinable substitution is named once.
    Entry("undefinable-duality", ("duality", "fu.kbm", "--max-vars", "2", "--depth", "1",
                                  "--format", "machine"),
          models={"fu.kbm": FU}, code=1, output=tuple(FU_DUALITY.splitlines())),
    Entry("undefinable-functor", ("functor", "fu.kbm", "--max-vars", "2", "--depth", "1",
                                  "--format", "machine"),
          models={"fu.kbm": FU}, code=1, output=tuple(FU_FUNCTOR.splitlines())),
    # The 6-cycle against two triangles, a symmetric binary R on six
    # elements: two variables do not tell them apart, so the search
    # witnesses the pair with alphas that no carrier map gives (exit 0), and
    # three variables refute it by lattice size (exit 1).
    Entry("six-cycle-2-1", ("equiv", "c6.kbm", "tt.kbm", "--max-vars", "2", "--depth", "1",
                            "--format", "machine"),
          models={"c6.kbm": C6, "tt.kbm": TT},
          lines=("witness.kind: functor isomorphism", "witness.phi: identity",
                 "witness.alphas: |X|=1: 2 filters; |X|=2: 8 filters")),
    Entry("six-cycle-3-1", ("equiv", "c6.kbm", "tt.kbm", "--max-vars", "3", "--depth", "1",
                            "--format", "machine"),
          models={"c6.kbm": C6, "tt.kbm": TT}, code=1,
          lines=("refutation.invariant: lattice size",
                 "refutation.summary: lattice size 1048576 vs 2048 at X={x1, x2, x3}")),
    # The clone walls: every point is its own atom after a handful of seeds,
    # so the build stops seeding there and grows the clone no further than
    # those seeds read (exit 0, within 10 s each).
    Entry("clone-wall-lattice", ("lattice", "g.kbm", "--vars", "x1,x2"),
          models={"g.kbm": CLONE_WALL}, lines=("size: 512", "height: 9", "saturated: yes"),
          timeout=10),
    Entry("nand-lattice-4", ("lattice", "nand.kbm", "--vars", "x1,x2,x3,x4"),
          models={"nand.kbm": NAND}, lines=("size: 65536", "height: 16"), timeout=10),
    # m_p over six, eight and ten variables.  The carrier transport builds
    # pullback tables of the first model only, so the decision fits in
    # 900 MB of address space; it reads them along the 27 substitution
    # generators at eight variables, not along the 28,501,116 bounded
    # substitutions; and at ten variables, with 1,024 atoms per lattice,
    # each cut descends the split tree only into the blocks it cuts (exit 0:
    # witnessed).
    *(Entry(f"m_p-{n}-1", ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm"), "--max-vars", str(n),
                           "--depth", "1", "--format", "machine"),
            lines=("verdict: EQUIVALENT_WITNESSED",), timeout=timeout,
            address_space_kib=900000)
      for n, timeout in ((6, 120), (8, 60), (10, 20))),
]


def child_env(env: dict) -> dict:
    """A run's environment: PYTHONPATH, `env`, and PYTHONDONTWRITEBYTECODE
    when the test run has it set, so that a test run that writes no
    bytecode keeps its children from writing any."""
    passed = {name: value for name, value in os.environ.items()
              if name == "PYTHONDONTWRITEBYTECODE"}
    return {"PYTHONPATH": PACKAGE_ROOT, **passed, **env}


def check(entry: Entry, directory: pathlib.Path) -> None:
    """Runs the entry in `directory`; raises AssertionError unless it keeps
    its contract."""
    for name, text in entry.models.items():
        (directory / name).write_text(text)

    def limit_address_space():
        limit = entry.address_space_kib * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    try:
        done = subprocess.run(
            [sys.executable, "-m", "kbgeo.cli", *entry.argv], cwd=directory,
            env=child_env(entry.env), timeout=entry.timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, encoding="utf-8",
            preexec_fn=None if entry.address_space_kib is None else limit_address_space)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"{entry.name}: still running after {entry.timeout} s") from None
    lines = done.stdout.splitlines()
    shown = "\n".join(lines[:60])
    assert done.returncode == entry.code, \
        f"{entry.name}: exit {done.returncode}, not {entry.code}\n{shown}"
    missing = [line for line in entry.lines if line not in lines]
    assert not missing, f"{entry.name}: missing {missing}\n{shown}"
    if entry.output is not None:
        assert len(lines) == len(entry.output) and all(
            line == want if isinstance(want, str) else want.fullmatch(line)
            for want, line in zip(entry.output, lines)), f"{entry.name}: output differs\n{shown}"


@pytest.mark.parametrize("entry", CONTRACT, ids=lambda entry: entry.name)
def test_the_command_line_keeps_its_contract(entry, tmp_path):
    check(entry, tmp_path)


@pytest.mark.parametrize("argv", [
    ("equiv", fixture("m_p.kbm"), fixture("m_p.kbm")),
    ("lattice", fixture("m_p.kbm"), "--vars", "x1,x2", "--dump"),
], ids=("equiv", "lattice-dump"))
def test_a_closed_stdout_keeps_the_command_s_exit_code(argv):
    """A reader that leaves before the report is written, as `| head -1`
    does, costs the run neither a traceback nor its exit code: the child
    gets a pipe whose read end is already closed, and still exits 0 with
    nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kbgeo.cli", *argv],
            env=child_env({}), stdout=write, stderr=subprocess.PIPE,
            encoding="utf-8", timeout=TIMEOUT)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("broken, message", [
    ({"code": 1}, "exit 0, not 1"),
    ({"lines": ("witness.phi: identity",)}, "missing"),
    ({"timeout": 0.001}, "still running"),
])
def test_a_broken_entry_fails(tmp_path, broken, message):
    """The runner refuses a real entry given a wrong exit code, a line the
    command does not print, or a timeout shorter than the run."""
    entry = next(entry for entry in CONTRACT if entry.name == "renamevars")
    with pytest.raises(AssertionError, match=message):
        check(dataclasses.replace(entry, **broken), tmp_path)


@pytest.mark.parametrize("setting, written", [("1", False), (None, True)])
def test_a_run_that_writes_no_bytecode_keeps_its_children_from_writing_any(
        tmp_path, monkeypatch, setting, written):
    """With PYTHONDONTWRITEBYTECODE set, an entry run on a copy of the
    package leaves no `__pycache__` in it; without, the child writes one."""
    root = tmp_path / "root"
    shutil.copytree(pathlib.Path(PACKAGE_ROOT) / "kbgeo", root / "kbgeo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setitem(globals(), "PACKAGE_ROOT", str(root))
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    (tmp_path / "run").mkdir()
    check(next(entry for entry in CONTRACT if entry.name == "renamevars"), tmp_path / "run")
    assert (root / "kbgeo" / "__pycache__").exists() == written
