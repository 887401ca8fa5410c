"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, hands the library
only those inputs in ``run`` and checks every answer in ``check``.  One call
of ``run`` may complete several operations (a survey writes many rows, a
roundtrip call checks a batch of a); ``size`` says how many, ``check``
returns how many of them failed and ``latencies`` gives each its latency.

``items(r)`` is the r-th pass over the inputs.  Every pass has the same
shape, so figures taken over whole passes do not depend on where a run
stops.  Library entry points are looked up as module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time

import numpy as np

from ppinv import cli, oracle, verify
from ppinv.family import PPParams
from ppinv.gf import Field

from harness import OUT

clock = time.perf_counter


def prime_factors(v: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= v:
        while v % f == 0:
            out[f] = out.get(f, 0) + 1
            v //= f
        f += 1
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def divisors(v: int) -> list[int]:
    """Sorted divisors of v from its factorisation, so q^m - 1 up to 2^32 is cheap."""
    divs = [1]
    for p, k in prime_factors(v).items():
        divs = [d * p ** i for d in divs for i in range(k + 1)]
    return sorted(divs)


def s_bar(s: int, field: Field) -> int:
    return math.gcd(s, field.order - 1)


class Workload:
    name = ""
    # Latency samples needed before a run may stop; p90 needs ten beyond it.
    min_samples = 1
    # Set by the harness in timed runs; a call that lasts long checkpoints it
    # between its own pieces of work.
    speed = None

    def setup(self, seed: int):
        raise NotImplementedError

    def items(self, r: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> int:
        raise NotImplementedError

    def size(self, item) -> int:
        return 1

    def latencies(self, item, result, dt: float) -> np.ndarray:
        n = self.size(item)
        return np.full(n, dt / n)

    def summary(self) -> dict:
        raise NotImplementedError

    def close(self):
        pass

    def warm_up(self):
        """One untimed call per field, which fills lazy caches such as the Lagrange basis."""
        seen = set()
        for item in self.items(0):
            if item[0].field not in seen:
                seen.add(item[0].field)
                self.run(item)


def field_names(items) -> list[str]:
    return list(dict.fromkeys(item[0].field.descriptor() for item in items))


class Stratified(Workload):
    """One input per (field, m, s, t) stratum and pass, cycling through
    PER_STRATUM seeded inputs per stratum; every input is criterion-true."""

    min_samples = 100
    PER_STRATUM = 1
    strata: list  # (params, PER_STRATUM inputs)

    def items(self, r: int) -> list:
        return [(params, inputs[r % self.PER_STRATUM]) for params, inputs in self.strata]

    def summary(self) -> dict:
        ts = [params.t for params, _ in self.strata]
        return {
            "fields": field_names(self.strata),
            "ops_per_pass": len(self.strata),
            "t_range": [min(ts), max(ts)],
            "pp_share": 1.0,
        }


class Survey(Workload):
    """`ppinv survey --max-order 125`, in-process; one operation is one CSV row.

    The input is fixed by the order bound, so the seed is unused.  Row
    latency is the time between consecutive ``check_family`` calls inside the
    survey, shared by the rows that call produced.
    """

    name = "survey"
    MAX_ORDER = 125
    ROWS = 28786
    CSV_SHA256 = "533d987c13a75ee9f592023311de31939b8ab3c13a164046bea168f5e301d7dc"
    WARMUP_ORDER = 9

    def setup(self, seed: int):
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"survey-{os.getpid()}.csv"
        self._fields: set = set()
        self._ts: set = set()
        self._pp = [0, 0]
        self._survey(self.WARMUP_ORDER)

    def _survey(self, max_order: int):
        argv = ["survey", "--max-order", str(max_order), "--out", str(self.path)]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(argv)
        return code, printed.getvalue()

    def items(self, r: int) -> list:
        return [self.MAX_ORDER]

    def size(self, item) -> int:
        return self.ROWS

    def run(self, max_order):
        marks: list[float] = []
        sizes: list[int] = []
        inner = verify.check_family
        speed = self.speed

        def now():
            # time net of reference kernels run inside the survey
            return clock() - (speed.seconds if speed else 0.0)

        def marked(*args, **kwargs):
            if speed is not None:
                speed.checkpoint()
            marks.append(now())
            out = inner(*args, **kwargs)
            sizes.append(len(out))
            return out

        verify.check_family = marked
        try:
            start = now()
            code, printed = self._survey(max_order)
            end = now()
        finally:
            verify.check_family = inner
        return code, printed, [start, *marks[1:], end], sizes

    def latencies(self, item, result, dt: float) -> np.ndarray:
        _, _, bounds, sizes = result
        per_row = np.diff(bounds) / np.asarray(sizes, dtype=np.float64)
        return np.repeat(per_row, sizes)

    def check(self, item, result) -> int:
        code, printed, _, sizes = result
        data = self.path.read_bytes()
        if (
            code != 0
            or printed.strip() != f"wrote {self.ROWS} rows to {self.path}"
            or hashlib.sha256(data).hexdigest() != self.CSV_SHA256
            or sum(sizes) != self.ROWS
        ):
            return self.ROWS
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != self.ROWS:
            return self.ROWS
        bad = 0
        for row in rows:
            pp = row["is_pp_criterion"] == "true"
            good = (
                row["is_pp_criterion"] == row["is_pp_oracle"]
                and row["inverse_ok"] == ("true" if pp else "")
                and row["special_agrees"] != "false"
            )
            bad += not good
            self._fields.add((row["p"], row["e"], row["n"]))
            self._ts.add(int(row["t"]))
            self._pp[0] += pp
            self._pp[1] += 1
        return bad

    def summary(self) -> dict:
        return {
            "fields": len(self._fields),
            "max_order": self.MAX_ORDER,
            "ops_per_pass": self.ROWS,
            "t_range": [min(self._ts), max(self._ts)] if self._ts else None,
            "pp_share": self._pp[0] / self._pp[1] if self._pp[1] else None,
        }

    def close(self):
        with contextlib.suppress(AttributeError, FileNotFoundError):
            self.path.unlink()


class Roundtrip(Workload):
    """``verify.check_family`` with no symbolic check and no special forms.

    Every (m, s, t) and every nonzero a on three small fields, then one
    seeded a per pass for each (m, s, t) with s_bar > 1 on F_{2^16}.  One
    operation is one a checked.
    """

    name = "roundtrip"
    SMALL = ((7, 1, 3), (2, 3, 3), (3, 3, 2))
    BIG = (2, 1, 16)
    HANDFUL = 3  # seeded a per (m, s, t) on the big field, one per pass

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        self.full = []  # (params, every nonzero a)
        for p, e, n in self.SMALL:
            field = Field(p, e, n)
            field.tables
            every_a = np.arange(1, field.order, dtype=np.int64)
            for m in range(1, n + 1):
                v = field.q ** m - 1
                for s in divisors(v):
                    self.full.append((PPParams(field, m, s, v // s), every_a))
        big = Field(*self.BIG)
        big.tables
        self.sampled = []  # (params, HANDFUL seeded a)
        for m in range(1, big.n + 1):
            v = big.q ** m - 1
            for s in divisors(v):
                if s_bar(s, big) > 1:
                    a_sel = rng.integers(1, big.order, size=self.HANDFUL, dtype=np.int64)
                    self.sampled.append((PPParams(big, m, s, v // s), a_sel))
        self._pp = [0, 0]
        self.warm_up()

    def items(self, r: int) -> list:
        i = r % self.HANDFUL
        return [(params, a_sel, True) for params, a_sel in self.full] + [
            (params, a_sel[i:i + 1], False) for params, a_sel in self.sampled
        ]

    def size(self, item) -> int:
        return len(item[1])

    def run(self, item):
        params, a_sel, _ = item
        return verify.check_family(params, a_sel)

    def check(self, item, records) -> int:
        params, a_sel, every_a = item
        if len(records) != len(a_sel):
            return len(a_sel)
        bad = 0
        pp = 0
        for rec, a in zip(records, a_sel):
            pp += rec.criterion
            good = (
                rec.a == a
                and rec.criterion == rec.bijective
                and rec.inverse_ok is (True if rec.criterion else None)
            )
            bad += not good
        if every_a:
            # a^((Q-1)/s_bar) = 1 has (Q-1)/s_bar solutions in the cyclic unit group.
            group = params.field.order - 1
            if pp != group - group // s_bar(params.s, params.field):
                return len(a_sel)
        self._pp[0] += pp
        self._pp[1] += len(a_sel)
        return bad

    def summary(self) -> dict:
        calls = self.items(0)
        return {
            "fields": field_names(calls),
            "ops_per_pass": sum(len(a) for _, a, _ in calls),
            "calls_per_pass": len(calls),
            "t_range": [min(p.t for p, _, _ in calls), max(p.t for p, _, _ in calls)],
            "pp_share": self._pp[0] / self._pp[1] if self._pp[1] else None,
        }


class Symbolic(Stratified):
    """``inverse_polynomial`` against Lagrange interpolation of the permutation.

    Strata: every (m, s, t) with s_bar > 1 and t >= 2 on F_{3^6} and on
    F_{2^10} split as (2, 5, 2); inputs: seeded criterion-true a.
    """

    name = "symbolic"
    FIELDS = ((3, 1, 6), (2, 5, 2))
    PER_STRATUM = 4

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        self.strata = []
        for p, e, n in self.FIELDS:
            field = Field(p, e, n)
            field.tables
            for m in range(1, n + 1):
                v = field.q ** m - 1
                for s in divisors(v):
                    if s_bar(s, field) > 1 and v // s >= 2:
                        params = PPParams(field, m, s, v // s)
                        pp_a = np.flatnonzero(params.criterion_mask()) + 1
                        picks = rng.choice(pp_a, size=self.PER_STRATUM, replace=False)
                        self.strata.append((params, [int(a) for a in picks]))
        self.warm_up()

    def run(self, item):
        params, a = item
        symbolic = params.inverse_polynomial(a)
        images = params.images_for([a])[0]
        interpolated = oracle.inverse_poly_by_interpolation(oracle.PermTable(params.field, images))
        return symbolic, interpolated

    def check(self, item, result) -> int:
        symbolic, interpolated = result
        same = (
            symbolic.field == interpolated.field == item[0].field
            and np.array_equal(symbolic.idx, interpolated.idx)
        )
        return 0 if same else 1


class Bigfield(Stratified):
    """Pointwise round trips on fields beyond tables and the oracle.

    Strata: for every m with a usable s, one seeded s_bar > 1 divisor s of
    q^m - 1 (found by factorising, since ``verify.factor_pairs`` is linear in
    q^m); inputs: seeded criterion-true a with uniform y.  One operation is
    x = inverse_value(a, y) checked by evaluate(a, x) == y.
    """

    name = "bigfield"
    FIELDS = ((2, 1, 32), (3, 1, 20), (7, 1, 11), (251, 1, 4))
    PER_STRATUM = 3

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        self.strata = []
        for p, e, n in self.FIELDS:
            field = Field(p, e, n)
            for m in range(1, n + 1):
                v = field.q ** m - 1
                usable = [s for s in divisors(v) if s_bar(s, field) > 1]
                if not usable:
                    continue
                s = usable[rng.integers(len(usable))]
                params = PPParams(field, m, s, v // s)
                queries = []
                while len(queries) < self.PER_STRATUM:
                    a = int(rng.integers(1, field.order))
                    if params.is_permutation(a):
                        queries.append((a, int(rng.integers(0, field.order))))
                self.strata.append((params, queries))
        self.warm_up()

    def run(self, item):
        params, (a, y) = item
        x = params.inverse_value(a, y)
        return params.evaluate(a, x)

    def check(self, item, back) -> int:
        _, (_, y) = item
        return 0 if back.index == y else 1


WORKLOADS = {cls.name: cls for cls in (Survey, Roundtrip, Symbolic, Bigfield)}
