"""Mutation gate: each entry breaks one rule in src/ and names the tests that must catch it.

    python tests/mutants.py

For each mutant it copies the tree to a temporary
directory, replaces the entry's snippet in its src file by the replacement,
and runs the entry's test files there with ``pytest -x`` under a timeout
of TIMEOUT seconds, JOBS mutants at a time.  It prints each mutant as
killed, survived or timed out (a timeout counts as killed) and exits 1 if
any survived or its tests could not run.  The tree itself is never edited.
``tests/test_mutants.py`` keeps every snippet applicable: each occurs
exactly once in src/.

A surviving mutant is a test gap: close it with a new or stronger test,
never by weakening the mutant.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2
TIMEOUT = 120.0  # seconds per mutant; the slowest killer file takes about 30 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # src file, relative to the repository root
    snippet: str  # occurs exactly once in src/
    replacement: str
    tests: tuple[str, ...]  # test files expected to kill it
    reason: str


POLY, GF = "src/ppinv/poly.py", "src/ppinv/gf.py"
T_POLY, T_GF = ("tests/test_poly.py",), ("tests/test_gf.py",)

MUTANTS = (
    # -- the one fold mod x^Q - x (poly._fold and its callers)
    Mutant("fold-from-above-Q", POLY, "np.where(exps < Q, exps,", "np.where(exps <= Q, exps,", T_POLY,
           "the rule applied from k > Q instead of k >= Q leaves x^Q unreduced"),
    Mutant("fold-plain-mod", POLY, "(exps - 1) % (Q - 1) + 1", "exps % (Q - 1)", T_POLY,
           "k mod (Q - 1) sends the exponents k = 0 mod (Q - 1) to 0, which changes f(0)"),
    Mutant("fold-sums-not-mod-p", POLY, "(acc % field.p) @ T.pw", "acc @ T.pw", T_POLY,
           "digit sums of colliding terms not reduced mod p"),
    Mutant("fold-assigns", POLY, "np.add.at(acc, k, T.dig[idx])", "acc[k] = T.dig[idx]", T_POLY,
           "terms that land on one exponent overwrite each other instead of adding"),
    Mutant("frobenius-without-p", POLY, "np.arange(len(self.idx)) * f.p,", "np.arange(len(self.idx)),", T_POLY,
           "frobenius keeps the exponents instead of multiplying them by p"),
    Mutant("frobenius-coefficients-unpowered", POLY, "f.tables.pow(self.idx, f.p))", "self.idx)", T_POLY,
           "frobenius keeps c for c^p, equal only on prime fields"),
    Mutant("terms-negative-exponent", POLY, "if (exps < 0).any():", "if False:", T_POLY,
           "poly_from_terms without its negative-exponent check wraps x^-1 onto the top exponent"),
    # -- FieldTables.pow: one Q-entry table of x^k from Q points up, logs below
    Mutant("pow-table-zero-kept", GF, "table[0] = 0  # log 0 reads 2L", "pass  # log 0 reads 2L", T_GF,
           "the table path reads 0^k as g^(2Lk) = 1"),
    Mutant("pow-k-unreduced", GF, "L, k = self.group, k % self.group", "L, k = self.group, k", T_GF,
           "k not reduced mod L on either path overflows log * k for large k"),
    Mutant("pow-direct-quotient", GF, "return np.where(u == 0, 0, self.exp[e - e // L * L])",
           "return np.where(u == 0, 0, self.exp[e - e // L])", T_GF,
           "e - e // L for the remainder by L on the direct path"),
    Mutant("pow-direct-zero-kept", GF, "return np.where(u == 0, 0, self.exp[e - e // L * L])",
           "return self.exp[e - e // L * L]", T_GF, "the direct path without its np.where reads 0^k as 1"),
    Mutant("pow-table-quotient", GF, "table = self.exp[e - e // L * L]", "table = self.exp[e - e // L]", T_GF,
           "e - e // L for the remainder by L on the table path"),
    # -- one rule per job in gf (and its callers)
    Mutant("sum-terms-drops-odd-row", GF, "stack[half:2 * half]), stack[2 * half:]])", "stack[half:2 * half])])",
           T_GF, "the pairwise halving drops the odd row"),
    Mutant("sum-terms-empty-ones", GF, "return np.zeros(stack.shape[1:], dtype=np.int64)",
           "return np.ones(stack.shape[1:], dtype=np.int64)", T_GF, "an empty sum returns ones"),
    Mutant("field-splits-short-range", "src/ppinv/verify.py", "range(2, max_order + 1)", "range(2, max_order)",
           ("tests/test_verify.py",), "field_splits misses a prime max_order"),
    Mutant("as-int-accepts-bool", GF, "if isinstance(value, (bool, np.bool_)):", "if False:", T_GF + T_POLY,
           "the one integer check reads True as 1 (element index, m, s, t, exponent)"),
    Mutant("element-range-past-Q", GF, "value.max() >= self.order", "value.max() > self.order", T_GF + T_POLY,
           "Field.element accepts the index Q in an array"),
    Mutant("check-images-shape-dropped", POLY, "if table.shape != (field.order,):", "if False:", T_POLY,
           "check_images accepts a table of the wrong length"),
    Mutant("poly-1d-check-dropped", POLY, "if coeffs.ndim != 1:", "if False:", T_POLY,
           "Poly accepts a 2-D coefficient array"),
    # -- input checks at the oracle and the family
    Mutant("tabulate-foreign-images", "src/ppinv/oracle.py", "images[k] = field.element(fn(x)).index",
           "images[k] = fn(x).index", ("tests/test_oracle.py",), "tabulate accepts images from another field"),
    Mutant("a-indices-not-1d", "src/ppinv/family.py", "if a.ndim != 1:", "if False:", ("tests/test_verify.py",),
           "PPParams.a_indices passes a 2-D or scalar selection on to numpy"),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply mutant to a fresh copy of the tree and run its tests there: killed,
    survived, timed out, or error when pytest could not run them at all."""
    with tempfile.TemporaryDirectory(prefix="ppinv-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
        shutil.copytree(ROOT, tree, ignore=skip)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            return "error", 0.0
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, cwd=tree, capture_output=True, timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        # 1: a test failed; 2: collection failed on the mutated source
        verdict = {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")
        return verdict, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(JOBS) as pool:  # each mutant's pytest is its own process
        results = list(pool.map(run, MUTANTS))
    for m, (verdict, seconds) in zip(MUTANTS, results):
        print(f"{verdict:9}  {seconds:5.1f} s  {m.name}: {m.reason}")
    tally = {v: sum(r == v for r, _ in results) for v in ("killed", "timed out", "survived", "error")}
    print(", ".join(f"{n} {v}" for v, n in tally.items()) + f"; {time.perf_counter() - start:.0f} s")
    return 1 if tally["survived"] or tally["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
