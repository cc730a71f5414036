"""Guards for the public surface and the report rows.

* Every name a module under ``repro`` exports in ``__all__`` resolves.
  ``repro.scenarios`` resolves its names lazily, so a stale export there
  shows only when the name is read.
* The report rows of a sweep and of a campaign are pinned as SHA-256
  digests of their JSON: a change to how rows are averaged must not move
  a value, a column or a column's order.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil

import pytest

import repro
from repro.campaigns import campaign_report, start_campaign
from repro.exec import make_backend
from repro.experiments.experiments import build_e1_plan
from repro.scenarios import resolve_scenario
from repro.store import ResultsStore


def _module_names() -> list[str]:
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]


@pytest.mark.parametrize("module_name", _module_names())
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]
    assert missing == []


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: ``group_rows()`` of the E1 smoke plan over seeds 11 and 23, per backend.
E1_ROW_DIGESTS = {
    "serial": "dd0c2e1d1bc1160adf321225f5af68a9a41072261bf8caf76a82e1e573fbd5e7",
    "vector": "acce0b937c37fd03eaaea06c395c7c993cc34d2a059ed13ee9a47570e9e363da",
}

#: ``campaign_report(...).rows`` of ``onoff-jamming`` at smoke scale on serial.
CAMPAIGN_ROW_DIGEST = "f393375a9611971199d86ff06fd3625fafab34654d996eb37a70a33d56e19cff"


@pytest.mark.parametrize("backend", sorted(E1_ROW_DIGESTS))
def test_sweep_rows_are_pinned(backend):
    plan = build_e1_plan("smoke", seeds=(11, 23))
    with make_backend(backend) as runner:
        rows = plan.run(runner).group_rows()
    assert len(rows) == 12
    assert _digest(rows) == E1_ROW_DIGESTS[backend]


def test_campaign_rows_are_pinned(tmp_path):
    with ResultsStore(tmp_path / "store") as store:
        outcome = start_campaign(
            store, resolve_scenario("onoff-jamming"), scale="smoke",
            backend_name="serial",
        )
        rows = campaign_report(store, outcome.campaign_id).rows
    assert [row["protocol"] for row in rows] == ["low-sensing", "binary-exponential"]
    assert _digest(rows) == CAMPAIGN_ROW_DIGEST
