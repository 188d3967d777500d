"""The metrics the benchmark prints are the ones BENCHMARK.json declares."""

import json
import time
from pathlib import Path

import pytest

import datagen
import workloads
from ledger import Ledger, Patches

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_end_to_end_names_and_units_match_manifest():
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert declared == workloads.END_TO_END_UNITS


def test_per_layer_names_and_units_match_manifest():
    declared = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert declared == workloads.PER_LAYER_UNITS


def test_workloads_match_manifest():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_fill_every_per_layer_name():
    values = workloads.layer_metrics({}, 0, 0.0, {})
    assert values.keys() == workloads.PER_LAYER_UNITS.keys()


def test_disc_all_self_time_counts_as_unattributed():
    totals = {"mining.wall_s": 0.01, "discall.loop_s": 0.07, "counting.count_2_s": 0.92}
    values = workloads.layer_metrics(totals, 1, 1.0, {})
    assert values["discall.loop_s"] == pytest.approx(0.07)
    assert values["mining.unattributed_s"] == pytest.approx(0.08)


def test_self_time_excludes_wrapped_children():
    ledger = Ledger()

    def inner() -> None:
        time.sleep(0.05)

    wrapped_inner = ledger.wrap("inner", inner)

    def outer() -> None:
        time.sleep(0.01)
        wrapped_inner()

    with ledger.span("root"):
        ledger.wrap("outer", outer)()
    totals = ledger.totals()
    assert totals["inner"] >= 0.05
    assert 0.01 <= totals["outer"] < totals["inner"]
    assert totals["root"] < 0.01
    assert totals["outer#calls"] == totals["inner#calls"] == 1


def test_patches_restore_originals():
    class Owner:
        value = 1

    patches = Patches()
    patches.set(Owner, "value", 2)
    assert Owner.value == 2
    patches.restore()
    assert Owner.value == 1


def test_seed_relabels_the_same_database():
    shape = datagen.Shape(ncust=30, slen=5, tlen=2, nitems=40, patlen=3, npats=5,
                          table_seed=1, draw_seed=1)
    first, again, other = (datagen.generate(shape, s) for s in (1, 1, 2))
    assert first == again
    assert first != other
    assert sorted(map(len, first)) == sorted(map(len, other))
