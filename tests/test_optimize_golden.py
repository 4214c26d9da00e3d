"""Optimizer stability: frozen optima on real campaign surfaces.

Campaign history, the reported optimum and ``surrogate_error`` all
flow from ``optimize_desirability``.  A speed-up of the surface
evaluation path must not move a single bit of its answer: the grid
scan picks the same seeds, L-BFGS-B walks the same trajectory (its
finite-difference gradient sees every rounding difference) and spends
the same number of objective evaluations.  This suite freezes those
answers on the three surface sets a seeded 3-round default campaign
optimizes over.  Surfaces and expectations are stored with
``float.hex`` so equality is exact.

The fixture holds, per round: each surface's terms, coefficients and
response transform, plus the expected outcomes of
``optimize_desirability`` with :func:`standard_desirability`, of
``optimize_surface`` on each desirability response, and of the
campaign's relaxed (arithmetic-mean) scan.

If a failure here is *intentional* (an optimizer change is meant to
move optima), regenerate the fixture and say so in the change log::

    PYTHONPATH=src python tests/test_optimize_golden.py --regen

``--regen`` re-runs the seeded campaign (simulations included, about
20 s) to capture fresh surfaces; ``--regen-expected`` keeps the stored
surfaces and only recomputes the expected optima.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign.campaign import Campaign
from repro.core.optimize import optimize_desirability, optimize_surface
from repro.core.rsm import ModelSpec
from repro.core.rsm.surface import ResponseSurface
from repro.core.rsm.terms import Term
from repro.core.rsm.transforms import TransformedSurface
from repro.core.toolkit import standard_desirability

GOLDEN_PATH = Path(__file__).parent / "data" / "optimize_golden.json"
CAMPAIGN_CONFIG = {"seed": 12, "max_rounds": 3, "patience": 3}


# -- surface (de)serialization ---------------------------------------------------


def dump_surface(surface) -> dict:
    transform = getattr(surface, "transform", "identity")
    base = surface.base if isinstance(surface, TransformedSurface) else surface
    return {
        "transform": transform,
        "factor_names": list(base.factor_names),
        "terms": [list(t.powers) for t in base.model.terms],
        "coefficients": [float(c).hex() for c in base.coefficients],
    }


def load_surface(entry: dict):
    model = ModelSpec(Term(tuple(powers)) for powers in entry["terms"])
    base = ResponseSurface(
        model,
        np.array([float.fromhex(c) for c in entry["coefficients"]]),
        tuple(entry["factor_names"]),
        stats=None,
        x_train=np.empty((0, model.k)),
        y_train=np.empty(0),
    )
    if entry["transform"] == "identity":
        return base
    return TransformedSurface(base, entry["transform"])


def load_surfaces(entry: dict) -> dict:
    return {name: load_surface(s) for name, s in entry["surfaces"].items()}


def hex_outcome(outcome) -> dict:
    return {
        "x_coded": [float(v).hex() for v in outcome.x_coded],
        "value": float(outcome.value).hex(),
        "responses": {
            name: float(v).hex() for name, v in outcome.responses.items()
        },
        "evaluations": int(outcome.evaluations),
    }


# -- the optimizations under test ------------------------------------------------


def desirability_optimum(surfaces) -> dict:
    return hex_outcome(optimize_desirability(surfaces, standard_desirability()))


def surface_optima(surfaces) -> dict:
    names = standard_desirability().response_names
    return {
        name: hex_outcome(optimize_surface(surfaces[name], maximize=True))
        for name in names
    }


def relaxed_optimum(surfaces) -> dict:
    stub = SimpleNamespace(
        objective=SimpleNamespace(desirability=standard_desirability())
    )
    return hex_outcome(Campaign._relaxed_optimum(stub, surfaces))


def expected_for(surfaces) -> dict:
    return {
        "desirability": desirability_optimum(surfaces),
        "surface": surface_optima(surfaces),
        "relaxed": relaxed_optimum(surfaces),
    }


# -- fixture generation ----------------------------------------------------------


def capture_surface_sets() -> list[dict]:
    """Run the seeded default campaign; return the surfaces handed to
    each of its ``optimize_desirability`` calls."""
    import repro.campaign.campaign as campaign_mod
    from repro.core.toolkit import SensorNodeDesignToolkit

    captured = []
    real = campaign_mod.optimize_desirability

    def spy(surfaces, desirability, *args, **kwargs):
        captured.append(
            {name: dump_surface(s) for name, s in surfaces.items()}
        )
        return real(surfaces, desirability, *args, **kwargs)

    campaign_mod.optimize_desirability = spy
    try:
        SensorNodeDesignToolkit().run_campaign(config=CAMPAIGN_CONFIG)
    finally:
        campaign_mod.optimize_desirability = real
    return captured


def build_fixture(surface_sets: list[dict]) -> dict:
    rounds = []
    for surfaces in surface_sets:
        entry = {"surfaces": surfaces}
        entry["expected"] = expected_for(load_surfaces(entry))
        rounds.append(entry)
    return {"campaign_config": CAMPAIGN_CONFIG, "rounds": rounds}


# -- tests -----------------------------------------------------------------------


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_holds_three_rounds_of_shared_model_surfaces():
    rounds = _golden()["rounds"]
    assert len(rounds) == 3
    for entry in rounds:
        names = set(entry["surfaces"])
        assert set(standard_desirability().response_names) <= names
        terms = {json.dumps(s["terms"]) for s in entry["surfaces"].values()}
        assert len(terms) == 1, "a campaign fits every response alike"


@pytest.mark.parametrize("index", range(3))
def test_desirability_optimum_matches_golden(index):
    entry = _golden()["rounds"][index]
    actual = desirability_optimum(load_surfaces(entry))
    assert actual == entry["expected"]["desirability"], (
        "optimize_desirability moved: its answer must be bit-identical "
        "(same seeds, same L-BFGS-B trajectory, same evaluation count). "
        "If intentional, regenerate the fixture (see module docstring)."
    )


@pytest.mark.parametrize("index", range(3))
def test_surface_optima_match_golden(index):
    entry = _golden()["rounds"][index]
    assert surface_optima(load_surfaces(entry)) == entry["expected"]["surface"]


@pytest.mark.parametrize("index", range(3))
def test_relaxed_optimum_matches_golden(index):
    entry = _golden()["rounds"][index]
    assert relaxed_optimum(load_surfaces(entry)) == entry["expected"]["relaxed"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        fixture = build_fixture(capture_surface_sets())
    elif "--regen-expected" in sys.argv:
        fixture = build_fixture(
            [entry["surfaces"] for entry in _golden()["rounds"]]
        )
    else:
        print(
            "run with --regen or --regen-expected to rewrite the fixture",
            file=sys.stderr,
        )
        sys.exit(2)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(fixture, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
