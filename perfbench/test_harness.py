"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ppinv import cli, verify  # noqa: E402
from ppinv.family import PPParams  # noqa: E402
from ppinv.gf import Field, FieldElement  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
     (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.highest_percentile(n) == expected


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds A [1, 4] (which holds G [2, 3]), B [5, 9] and A again [9.5, 9.75]
    names = [0, 1, 2, 3, 1]
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 9.75]
    own_by_name, calls, own = tracing.self_times(names, parents, starts, ends, 4)
    assert own_by_name.tolist() == pytest.approx([2.75, 2.25, 1.0, 4.0])
    assert calls.tolist() == [1, 2, 1, 1]
    assert own.sum() == pytest.approx(10.0)


def test_tracer_patches_callers_and_restores():
    original = verify.check_family
    original_mul = FieldElement.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.check_family is verify.check_family is not original
        assert FieldElement.__mul__ is not original_mul
        params = PPParams(Field(2, 1, 4), 1, 1, 1)
        root = len(tracer)

        def op():
            params.field.one * params.field.one
            return verify.check_family(params)

        records = tracer.traced(tracing.OP_SPAN, op)()
    finally:
        tracer.uninstall()
    assert verify.check_family is original and cli.check_family is original
    assert FieldElement.__mul__ is original_mul
    wall = tracer.ends[root] - tracer.starts[root]
    metrics = tracer.layer_metrics((root, len(tracer)), wall)
    assert metrics["gf.first_irreducible.calls"] == 1
    assert metrics["verify.check_family.calls"] == 1
    assert metrics["family.PPParams.criterion_mask.calls"] == 1
    assert metrics["gf.FieldElement.mul.calls"] == 1
    assert metrics["family.pp_share"] == sum(r.criterion for r in records) / len(records)
    assert metrics["trace.span_coverage"] == pytest.approx(1.0)
    names = {name for name, _, _ in tracing.metric_names()} - {"trace.overhead"}
    assert set(metrics) == names


class WrongAnswers(workloads.Bigfield):
    """Bigfield on its smallest field, with every m = 1 answer corrupted."""

    FIELDS = ((251, 1, 4),)
    min_samples = 1

    def run(self, item):
        back = super().run(item)
        if item[0].m == 1:
            return back.field.element((back.index + 1) % back.field.order)
        return back


def test_injected_wrong_answer_counts_in_error_rate():
    result, record = harness.run_untraced(WrongAnswers, seed=0, seconds=0, import_s=0.0, setups=1)
    passes = record["passes"]
    assert result["correct"] is False
    assert result["attempted"] == 4 * passes
    assert result["failed"] == passes
    assert record["error_rate"] == pytest.approx(0.25)
    raw = record["raw"]
    assert result["metrics"]["ops_per_s"]["value"] == pytest.approx(
        raw["ops_per_s"] * record["speed_factor"])
    assert result["metrics"]["op_p50_ms"]["value"] == pytest.approx(
        raw["op_p50_ms"] / record["speed_factor"])


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.metric_names()
    ]


def test_survey_row_latencies_partition_the_call():
    bounds = [0.0, 0.5, 0.6, 2.0]
    sizes = [5, 1, 4]
    lat = workloads.Survey().latencies(None, (0, "", bounds, sizes), 2.0)
    assert len(lat) == 10
    assert lat.sum() == pytest.approx(2.0)
    assert np.allclose(lat[:5], 0.1)
