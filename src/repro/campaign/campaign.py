"""The adaptive campaign: sequential surrogate-guided exploration.

The one-shot flow (:meth:`~repro.core.toolkit.SensorNodeDesignToolkit
.run_study`) spends its whole simulation budget up front on a fixed
design, fits once and optimizes on the surface.  A :class:`Campaign`
spends the budget *sequentially*: fit the current RSM, diagnose it
(cross-validation, lack-of-fit), let an acquisition strategy decide
which points are worth simulating next — zoom toward the optimum,
infill where the model is weak, walk out of the box when the optimum
is outside it — and stop as soon as the optimum stabilises.  On the
same problem this reaches the one-shot optimum with measurably fewer
simulator runs (``benchmarks/bench_campaign_convergence.py`` records
the ratio).

Execution rides the PR-1..4 substrate unchanged: every round's batch
goes through the owning explorer's
:class:`~repro.exec.engine.EvaluationEngine` — and therefore through
the futures-style :meth:`~repro.exec.backends.EvaluationBackend
.submit` contract, so a round fans out across serial / process /
thread / distributed backends alike and is deduplicated against the
shared :class:`~repro.exec.store.CacheStore`.  Campaign state is
journaled durably beside the store (:mod:`repro.campaign.journal`):
the plan is written *before* evaluation, so a SIGKILLed campaign
resumes mid-round, re-submits the interrupted plan, and the cache
answers everything that already ran — zero evaluations lost, none
repeated, and the resumed run is bit-identical to an uninterrupted
one (all acquisition randomness is seeded per round).

Durability granularity: evaluations become resumable when they reach
the cache store, which happens once per engine dispatch.  The serial
backend therefore evaluates round batches in chunks of
``config.eval_chunk`` (default 1 — every point persists as it
finishes); parallel backends default to whole-round dispatch (the
fan-out grain), and the distributed backend persists per job through
its workers regardless.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.desirability import CompositeDesirability, Desirability
from repro.core.doe.base import Design
from repro.core.explorer import DesignExplorer, ExplorationResult
from repro.core.optimize import (
    OptimizationOutcome,
    coded_grid,
    optimize_desirability,
    optimize_surface,
    shared_predictor,
)
from repro.core.rsm.anova import anova_table
from repro.core.rsm.crossval import loo_residuals, press
from repro.core.rsm.terms import ModelSpec
from repro.core.rsm.transforms import TransformedSurface
from repro.errors import DesignError, FitError, OptimizationError, ReproError
from repro.campaign.acquisition import (
    AcquisitionStrategy,
    FactorBox,
    Proposal,
    RoundContext,
    initial_design_matrix,
    resolve_acquisition,
)
from repro.campaign.journal import (
    CampaignJournal,
    MemoryCampaignJournal,
    journal_for_store,
    resolve_journal,
)
from repro.obs.catalog import flush_metrics, instrument
from repro.obs.events import emit_event
from repro.obs.tracing import span

#: Stop reasons that count as *converged* (the campaign believes it
#: found the optimum) versus merely *stopped* (resources ran out).
CONVERGED_REASONS = ("optimum-converged", "cv-floor-reached")
STOP_REASONS = CONVERGED_REASONS + (
    "budget-exhausted",
    "max-rounds",
    "region-exhausted",
)


def _jsonify(obj):
    """Recursively convert numpy containers/scalars for JSON."""
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


class Objective:
    """What the campaign steers toward.

    Either a single fitted response (maximized or minimized) or a
    :class:`~repro.core.desirability.CompositeDesirability` over
    several responses.  ``score`` is always *maximize-oriented* so the
    campaign compares candidates uniformly.

    Construct via :meth:`maximize_response` / :meth:`minimize_response`
    / :meth:`of_desirability`.
    """

    def __init__(
        self,
        response: str | None = None,
        maximize: bool = True,
        desirability: CompositeDesirability | None = None,
    ):
        if (response is None) == (desirability is None):
            raise OptimizationError(
                "pass exactly one of response= or desirability="
            )
        self.response = response
        self.maximize = bool(maximize)
        self.desirability = desirability

    # -- constructors ----------------------------------------------------------

    @classmethod
    def maximize_response(cls, name: str) -> "Objective":
        return cls(response=name, maximize=True)

    @classmethod
    def minimize_response(cls, name: str) -> "Objective":
        return cls(response=name, maximize=False)

    @classmethod
    def of_desirability(
        cls, desirability: CompositeDesirability
    ) -> "Objective":
        return cls(desirability=desirability)

    # -- the contract ----------------------------------------------------------

    @property
    def responses(self) -> tuple[str, ...]:
        if self.desirability is not None:
            return self.desirability.response_names
        return (self.response,)

    def score(self, responses: Mapping[str, float]) -> float:
        """Maximize-oriented quality of one response dict."""
        if self.desirability is not None:
            return float(self.desirability(responses))
        value = float(responses[self.response])
        return value if self.maximize else -value

    def describe(self) -> str:
        if self.desirability is not None:
            return f"desirability: {self.desirability.describe()}"
        verb = "maximize" if self.maximize else "minimize"
        return f"{verb} {self.response}"

    # -- serialization (resume needs the objective back) -----------------------

    def spec(self) -> dict:
        if self.desirability is None:
            return {
                "kind": "response",
                "response": self.response,
                "maximize": self.maximize,
            }
        d = self.desirability
        return {
            "kind": "desirability",
            "parts": {
                name: {
                    "goal": part.goal,
                    "low": part.low,
                    "high": part.high,
                    "target": part.target,
                    "weight": part.weight,
                }
                for name, part in d.parts.items()
            },
            "importances": dict(d.importances),
        }

    @classmethod
    def from_spec(cls, payload: Mapping) -> "Objective":
        kind = payload.get("kind")
        if kind == "response":
            return cls(
                response=payload["response"],
                maximize=bool(payload.get("maximize", True)),
            )
        if kind == "desirability":
            parts = {
                name: Desirability(
                    entry["goal"],
                    entry["low"],
                    entry["high"],
                    target=entry.get("target"),
                    weight=entry.get("weight", 1.0),
                )
                for name, entry in payload["parts"].items()
            }
            return cls(
                desirability=CompositeDesirability(
                    parts, importances=payload.get("importances")
                )
            )
        raise ReproError(f"unknown objective spec kind {kind!r}")


@dataclass
class CampaignConfig:
    """Knobs of the sequential exploration.

    Attributes:
        max_rounds: hard round ceiling.
        batch: target new points per acquisition round (the initial
            design sets its own size).
        initial_design: round-0 design inside the full box — ``"ccd"``
            (face-centred, 3 centre replicates) or ``"lhs"``.
        initial_runs: LHS run count for ``initial_design="lhs"``
            (default: enough to identify the model comfortably).
        model: RSM form fitted each round (falls back to ``"linear"``
            when a round's in-box data cannot identify it).
        acquisition: strategy name (see
            :data:`~repro.campaign.acquisition.ACQUISITIONS`) or a
            ready strategy instance.
        shrink: trust-region zoom factor per zoom round.
        min_half_width: smallest box half-width (stops infinite
            zooming).
        optimum_tol: coded-distance optimum shift below which a round
            counts toward convergence.
        patience: consecutive small-shift rounds required to declare
            ``optimum-converged``.
        cv_floor: normalized cross-validation error at or below which
            the surrogate is declared accurate enough
            (``cv-floor-reached``); None disables the criterion.
        budget: simulated-evaluation ceiling (cache hits are free);
            checked between rounds.  None is unbounded.
        seed: base seed; every round derives its own stream from it,
            which is what makes resume bit-identical.
        eval_chunk: points per engine dispatch within a round — the
            durability grain.  None auto-selects 1 for the serial
            backend (every evaluation persists as it lands) and
            whole-round dispatch for parallel backends.
        pipeline_rounds: opt-in round overlap.  While a round's
            stragglers drain, a *speculative* next-round acquisition
            is computed from the points already landed and prefetched
            through the engine's backend, so a distributed fleet
            starts on round r+1 before round r finishes.  The real
            fit and acquisition still run on the full round exactly
            as a sequential campaign's would, so results, the
            journal, and resume stay bit-identical — a wrong guess
            only costs background work whose results land in the
            shared cache anyway.
    """

    max_rounds: int = 8
    batch: int = 8
    initial_design: str = "ccd"
    initial_runs: int | None = None
    model: str = "quadratic"
    acquisition: "str | AcquisitionStrategy" = "auto"
    shrink: float = 0.5
    min_half_width: float = 0.05
    optimum_tol: float = 0.05
    patience: int = 2
    cv_floor: float | None = None
    budget: int | None = None
    seed: int = 7
    eval_chunk: int | None = None
    pipeline_rounds: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise DesignError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.batch < 1:
            raise DesignError(f"batch must be >= 1, got {self.batch}")
        if not (0.0 < self.shrink <= 1.0):
            raise DesignError(
                f"shrink must be in (0, 1], got {self.shrink}"
            )
        if self.patience < 1:
            raise DesignError(
                f"patience must be >= 1, got {self.patience}"
            )
        if self.optimum_tol <= 0.0:
            raise DesignError(
                f"optimum_tol must be > 0, got {self.optimum_tol}"
            )
        if self.eval_chunk is not None and self.eval_chunk < 1:
            raise DesignError(
                f"eval_chunk must be >= 1, got {self.eval_chunk}"
            )

    def as_dict(self) -> dict:
        payload = {
            "max_rounds": self.max_rounds,
            "batch": self.batch,
            "initial_design": self.initial_design,
            "initial_runs": self.initial_runs,
            "model": self.model,
            # Instances serialize as {name, params} so a resume
            # rebuilds the exact strategy, tunables included.
            "acquisition": (
                self.acquisition.spec()
                if isinstance(self.acquisition, AcquisitionStrategy)
                else self.acquisition
            ),
            "shrink": self.shrink,
            "min_half_width": self.min_half_width,
            "optimum_tol": self.optimum_tol,
            "patience": self.patience,
            "cv_floor": self.cv_floor,
            "budget": self.budget,
            "seed": self.seed,
            "eval_chunk": self.eval_chunk,
            "pipeline_rounds": self.pipeline_rounds,
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class CampaignResult:
    """What a finished (or stopped) campaign produced.

    ``history`` and ``best``/``best_evaluated`` are deterministic
    functions of the configuration and the simulator — a resumed
    campaign reproduces them bit-identically.  ``evaluations`` counts
    *this session's* engine traffic (a resumed session only pays for
    what the journal and cache could not answer), so it is excluded
    from identity comparisons.
    """

    campaign_id: str
    converged: bool
    stop_reason: str
    history: list[dict]
    best: dict
    best_evaluated: dict
    evaluations: dict
    surfaces: dict = field(default_factory=dict, repr=False)

    @property
    def n_rounds(self) -> int:
        return len(self.history)

    def as_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "n_rounds": self.n_rounds,
            "history": self.history,
            "best": self.best,
            "best_evaluated": self.best_evaluated,
            "evaluations": self.evaluations,
        }

    def report(self) -> str:
        """Multi-section text report of the campaign."""
        lines = [
            f"== campaign {self.campaign_id} ==",
            f"outcome: {self.stop_reason} "
            f"({'converged' if self.converged else 'stopped'}) "
            f"after {self.n_rounds} rounds",
            f"evaluations: {self.evaluations.get('simulated', 0)} "
            f"simulated + {self.evaluations.get('cached', 0)} cached "
            f"this session",
            "",
            "== rounds ==",
            f"{'round':>5}  {'points':>6}  {'score':>12}  {'shift':>9}  "
            f"{'cv':>8}  move",
        ]
        for entry in self.history:
            shift = entry.get("shift")
            cv = entry.get("cv_error")
            lines.append(
                f"{entry['round']:>5}  {entry['n_points']:>6}  "
                f"{entry['score']:>12.5g}  "
                f"{'-' if shift is None else format(shift, '9.4f'):>9}  "
                f"{'-' if cv is None else format(cv, '8.4f'):>8}  "
                f"{entry.get('reason', '-')}"
            )
        lines.append("")
        lines.append("== optimum (fitted surface) ==")
        lines.append(f"score: {self.best['score']:.6g}")
        for name, value in sorted(self.best.get("point", {}).items()):
            lines.append(f"  {name:20s} = {value:.6g}")
        if self.best.get("predictions"):
            lines.append("predicted responses:")
            for name, value in sorted(self.best["predictions"].items()):
                lines.append(f"  {name:20s} = {value:.6g}")
        lines.append("")
        lines.append("== best evaluated point ==")
        lines.append(f"score: {self.best_evaluated['score']:.6g}")
        for name, value in sorted(
            self.best_evaluated.get("point", {}).items()
        ):
            lines.append(f"  {name:20s} = {value:.6g}")
        return "\n".join(lines)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CampaignResult":
        return cls(
            campaign_id=payload.get("campaign_id", "?"),
            converged=bool(payload.get("converged")),
            stop_reason=payload.get("stop_reason", "?"),
            history=list(payload.get("history", [])),
            best=dict(payload.get("best", {})),
            best_evaluated=dict(payload.get("best_evaluated", {})),
            evaluations=dict(payload.get("evaluations", {})),
        )


@dataclass
class _State:
    """In-memory campaign state (rebuilt from the journal on resume)."""

    x_global: np.ndarray
    responses: dict[str, list[float]]
    history: list[dict] = field(default_factory=list)
    prev_optimum: np.ndarray | None = None
    streak: int = 0
    simulated: int = 0
    cached: int = 0
    #: Points the distributed backend had to evaluate in-process
    #: because the substrate degraded (queue down / fleet silent).
    degraded: int = 0
    #: Speculative next-round points prefetched while a round's
    #: stragglers drained (pipeline_rounds), and how many of them the
    #: real acquisition then actually asked for.
    speculated: int = 0
    speculative_hits: int = 0
    surfaces: dict = field(default_factory=dict)
    last_outcome: OptimizationOutcome | None = None
    last_box: FactorBox | None = None


def _point_key(row: np.ndarray) -> bytes:
    return np.round(np.asarray(row, dtype=float), 12).tobytes()


class Campaign:
    """Sequential surrogate-guided exploration over an explorer.

    Args:
        explorer: the :class:`~repro.core.explorer.DesignExplorer`
            whose engine (backend + cache) evaluates batches; its
            ``responses`` must cover the objective's.
        objective: what to steer toward (an :class:`Objective`, a
            :class:`~repro.core.desirability.CompositeDesirability`,
            or a response name — maximized).
        journal: where state persists — a
            :class:`~repro.campaign.journal.CampaignJournal`, a path
            spec for :func:`~repro.campaign.journal.resolve_journal`,
            or None to co-locate with the explorer's cache store
            (memory journal when the cache is not persistent).
        config: a :class:`CampaignConfig` or a mapping of its fields.
        campaign_id: identity in the journal (several campaigns can
            share one substrate).
        transforms: response name -> transform for fitting (e.g. the
            toolkit's ``{"effective_data_rate": "log1p"}``).
    """

    def __init__(
        self,
        explorer: DesignExplorer,
        objective: "Objective | CompositeDesirability | str",
        journal: "CampaignJournal | str | None" = None,
        config: "CampaignConfig | Mapping | None" = None,
        campaign_id: str = "default",
        transforms: Mapping[str, str] | None = None,
    ):
        self.explorer = explorer
        if isinstance(objective, str):
            objective = Objective.maximize_response(objective)
        elif isinstance(objective, CompositeDesirability):
            objective = Objective.of_desirability(objective)
        self.objective = objective
        missing = set(objective.responses) - set(explorer.responses)
        if missing:
            raise DesignError(
                f"objective needs responses the explorer does not "
                f"produce: {sorted(missing)}"
            )
        if config is None:
            self.config = CampaignConfig()
        elif isinstance(config, CampaignConfig):
            self.config = config
        else:
            self.config = CampaignConfig.from_dict(config)
        self.campaign_id = campaign_id
        self.transforms = {
            name: t
            for name, t in (transforms or {}).items()
            if name in explorer.responses
        }
        if journal is None:
            cache = getattr(explorer.engine, "cache", None)
            self.journal = (
                journal_for_store(cache.store)
                if cache is not None
                else MemoryCampaignJournal()
            )
        else:
            self.journal = resolve_journal(journal)
        #: (round index, point keys) of the live speculative prefetch.
        self._speculation: tuple[int, set[bytes]] | None = None

    # -- identity / config payloads --------------------------------------------

    @property
    def space(self):
        return self.explorer.space

    def _space_spec(self) -> list[dict]:
        return [
            {
                "name": f.name,
                "low": f.low,
                "high": f.high,
                "transform": f.transform,
                "integer": f.integer,
                "units": f.units,
            }
            for f in self.space.factors
        ]

    def _config_payload(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "objective": self.objective.spec(),
            "space": self._space_spec(),
            "responses": list(self.explorer.responses),
            "transforms": dict(self.transforms),
        }

    def _seed_for(self, round_index: int) -> int:
        return (self.config.seed * 1_000_003 + round_index * 101) % (2**31)

    # -- entry points -----------------------------------------------------------

    def _fresh_state(self) -> _State:
        return _State(
            x_global=np.empty((0, self.space.k)),
            responses={name: [] for name in self.explorer.responses},
        )

    def _initial_plan(self) -> dict:
        """The round-0 plan: the initial design in the full box."""
        matrix = initial_design_matrix(
            self.config.initial_design,
            self.space.k,
            self._initial_runs(),
            self._seed_for(0),
        )
        return {
            "box": FactorBox.full(self.space.k).as_dict(),
            "points": _jsonify(np.clip(matrix, -1.0, 1.0)),
            "reason": f"initial {self.config.initial_design} design",
            "strategy": "initial",
            "seed": self._seed_for(0),
        }

    def run(self, overwrite: bool = False) -> CampaignResult:
        """Run a fresh campaign to convergence (or another stop)."""
        self.journal.create(
            self.campaign_id, self._config_payload(), overwrite=overwrite
        )
        state = self._fresh_state()
        plan = self._initial_plan()
        self.journal.begin_round(self.campaign_id, 0, plan)
        return self._advance(state, 0, plan)

    def resume(self) -> CampaignResult:
        """Continue a journaled campaign from its last durable state.

        Completed rounds replay from the journal (no evaluation); an
        interrupted round's plan is re-submitted through the engine,
        whose cache answers the points that already ran.  A finished
        campaign returns its stored result untouched.
        """
        record = self.journal.load(self.campaign_id)
        if record is None:
            raise ReproError(
                f"no campaign {self.campaign_id!r} to resume in "
                f"{self.journal.describe()}"
            )
        stored_space = record.config.get("space")
        if stored_space is not None and stored_space != self._space_spec():
            raise ReproError(
                "the journaled campaign was run over a different factor "
                "space; refusing to resume with this evaluator"
            )
        # The journal's configuration is authoritative: resuming under
        # different knobs would break bit-identical continuation.
        if record.config.get("config"):
            self.config = CampaignConfig.from_dict(record.config["config"])
        if record.config.get("objective"):
            self.objective = Objective.from_spec(record.config["objective"])
        if record.config.get("transforms") is not None:
            self.transforms = dict(record.config["transforms"])
        if record.status == "complete" and record.result is not None:
            return CampaignResult.from_payload(record.result)

        state = self._fresh_state()
        pending: tuple[int, dict] | None = None
        for entry in record.rounds:
            if entry.status == "complete":
                self._replay_round(state, entry.index, entry.planned, entry.completed)
            else:
                pending = (entry.index, entry.planned)
        if pending is None:
            last = state.history[-1] if state.history else None
            if last is not None and last.get("stop_reason"):
                # Killed between the final complete_round and finish():
                # seal the stored outcome.
                result = self._build_result(
                    state, last["stop_reason"]
                )
                self.journal.finish(self.campaign_id, result.as_dict())
                return result
            if last is None:
                # Created but never planned: start round 0 now.
                plan = self._initial_plan()
                self.journal.begin_round(self.campaign_id, 0, plan)
                return self._advance(state, 0, plan)
            # Killed between complete_round(r) and begin_round(r+1):
            # the completed payload carries the next plan.
            next_plan = last.get("_next")
            if next_plan is None:  # pragma: no cover - defensive
                raise ReproError(
                    "journal is missing the next round's plan; cannot "
                    "resume deterministically"
                )
            index = last["round"] + 1
            self.journal.begin_round(self.campaign_id, index, next_plan)
            return self._advance(state, index, next_plan)
        return self._advance(state, pending[0], pending[1])

    def _record_finish(self, state: _State, stop: str) -> None:
        """Final per-study cost accounting.

        Estimates the simulated seconds the campaign's early stop
        avoided: the rounds it did *not* run (relative to
        ``max_rounds``), at this campaign's observed points-per-round
        and the engine's observed seconds-per-point.  A ``max-rounds``
        stop therefore reports zero — nothing was avoided.  The figure
        lands on the ``repro_cost_saved_simulated_seconds`` gauge
        (``source="campaign"``) next to the cache's saving, and a
        metrics flush makes it visible to cross-process aggregation.
        """
        rounds_run = len(state.history)
        remaining = max(0, self.config.max_rounds - rounds_run)
        saved = 0.0
        if remaining and rounds_run and state.simulated:
            engine = self.explorer.engine
            evaluated = getattr(engine, "points_evaluated", 0)
            eval_seconds = getattr(engine, "eval_seconds", 0.0)
            per_point = eval_seconds / evaluated if evaluated else 0.0
            saved = remaining * (state.simulated / rounds_run) * per_point
        instrument("repro_cost_saved_simulated_seconds").set(
            saved, source="campaign"
        )
        flush_metrics("campaign")

    # -- the round loop ----------------------------------------------------------

    def _initial_runs(self) -> int | None:
        if self.config.initial_design != "lhs":
            return self.config.initial_runs
        if self.config.initial_runs is not None:
            return self.config.initial_runs
        p = self._model_spec(self.config.model).p
        return max(4 * self.space.k, p + 4)

    def _model_spec(self, name: str) -> ModelSpec:
        builders = {
            "linear": ModelSpec.linear,
            "interaction": ModelSpec.interaction,
            "quadratic": ModelSpec.quadratic,
        }
        if name not in builders:
            raise FitError(
                f"unknown campaign model {name!r}; pick from "
                f"{sorted(builders)}"
            )
        return builders[name](self.space.k)

    def _advance(
        self, state: _State, index: int, plan: dict
    ) -> CampaignResult:
        """Run rounds from a journaled plan until a stop criterion."""
        while True:
            with span("round", campaign=self.campaign_id, round=index):
                stop, completed = self._run_round(state, index, plan)
            if stop is not None:
                self.journal.complete_round(
                    self.campaign_id, index, completed
                )
                result = self._build_result(state, stop)
                self.journal.finish(self.campaign_id, result.as_dict())
                self._record_finish(state, stop)
                return result
            plan = state.history[-1]["_next"]
            self.journal.advance_round(
                self.campaign_id, index, completed, plan
            )
            index += 1

    def _run_round(
        self, state: _State, index: int, plan: dict
    ) -> tuple[str | None, dict]:
        """Evaluate, fit, diagnose, decide; returns ``(stop, completed)``
        where ``stop`` is a stop reason or None (in which case
        ``state.history[-1]['_next']`` holds the next journaled plan)
        and ``completed`` is the round payload for the caller to
        journal — through one :meth:`~CampaignJournal.advance_round`
        when the campaign continues."""
        cfg = self.config
        box = FactorBox.from_dict(plan["box"])
        points = np.atleast_2d(np.asarray(plan["points"], dtype=float))
        emit_event(
            "round_begin",
            campaign=self.campaign_id,
            round=index,
            points=int(points.shape[0]),
        )
        before = self.explorer.engine.stats_snapshot()
        if cfg.pipeline_rounds and points.shape[0] >= 2:
            columns = self._evaluate_pipelined(state, box, points, index)
        else:
            columns = self._evaluate(points, index)
        delta = self.explorer.engine.stats(since=before)
        simulated = int(delta.get("points_evaluated", 0))
        cached = int((delta.get("cache") or {}).get("hits", 0))
        degraded = int(delta.get("degraded_evaluations", 0))
        state.simulated += simulated
        state.cached += cached
        state.degraded += degraded

        state.x_global = (
            np.vstack([state.x_global, points])
            if state.x_global.size
            else points.copy()
        )
        for name in self.explorer.responses:
            state.responses[name].extend(
                float(v) for v in columns[name]
            )

        with span("fit", campaign=self.campaign_id, round=index):
            analysis = self._fit_and_diagnose(state, box, index)
        state.surfaces = analysis["surfaces"]
        state.last_outcome = analysis["outcome"]
        state.last_box = box

        optimum_global = analysis["optimum_global"]
        shift = (
            float(np.linalg.norm(optimum_global - state.prev_optimum))
            if state.prev_optimum is not None
            else None
        )
        state.prev_optimum = optimum_global
        if shift is not None and shift <= cfg.optimum_tol:
            state.streak += 1
        else:
            state.streak = 0

        stop: str | None = None
        if state.streak >= cfg.patience:
            stop = "optimum-converged"
        elif (
            cfg.cv_floor is not None
            and analysis["cv_error"] is not None
            and analysis["cv_error"] <= cfg.cv_floor
            and index >= 1
        ):
            stop = "cv-floor-reached"
        elif cfg.budget is not None and state.simulated >= cfg.budget:
            stop = "budget-exhausted"
        elif index + 1 >= cfg.max_rounds:
            stop = "max-rounds"

        next_plan: dict | None = None
        if stop is None:
            with span("acquire", campaign=self.campaign_id, round=index):
                proposal = self._acquire(state, box, index, analysis)
            if proposal is None:
                stop = "region-exhausted"
            else:
                next_plan = {
                    "box": proposal.box.as_dict(),
                    "points": _jsonify(proposal.points),
                    "reason": proposal.reason,
                    "strategy": proposal.strategy,
                    "seed": self._seed_for(index + 1),
                }
                self._score_speculation(state, index + 1, proposal.points)

        entry = self._history_entry(
            state, index, plan, box, points, analysis, shift, stop
        )
        if next_plan is not None:
            entry["_next"] = next_plan
        state.history.append(entry)

        completed = dict(entry)
        completed["responses"] = {
            name: _jsonify(columns[name])
            for name in self.explorer.responses
        }
        completed["exec"] = {
            "simulated": simulated,
            "cached": cached,
            "degraded": degraded,
        }
        if next_plan is not None:
            completed["next"] = next_plan
        completed.pop("_next", None)
        instrument("repro_campaign_rounds_total").inc(
            stop=stop or "continue"
        )
        points_metric = instrument("repro_campaign_points_total")
        points_metric.inc(simulated, source="simulated")
        points_metric.inc(cached, source="cached")
        emit_event(
            "round_complete",
            campaign=self.campaign_id,
            round=index,
            simulated=simulated,
            cached=cached,
            degraded=degraded,
            stop=stop,
        )
        return stop, completed

    def _evaluate_pipelined(
        self,
        state: _State,
        box: FactorBox,
        points: np.ndarray,
        index: int,
    ) -> dict[str, np.ndarray]:
        """Evaluate a round while speculatively feeding the next one.

        The round's prefix (enough points for an identifiable fit)
        evaluates first; a speculative next-round acquisition runs on
        prior data + that prefix and its points are *prefetched* —
        enqueued through the backend's futures seam without awaiting
        a handle — so a distributed fleet works on round r+1 while
        this process drains round r's stragglers.  The split is a
        deterministic function of the plan, and every returned value
        is exactly what :meth:`_evaluate` would return: the engine
        cache answers each point identically however it was chunked.
        """
        split = max(1, (points.shape[0] * 3) // 4)
        prefix, stragglers = points[:split], points[split:]
        columns = self._evaluate(prefix, index)
        self._speculate(state, box, prefix, columns, index)
        if stragglers.shape[0]:
            rest = self._evaluate(stragglers, index)
            columns = {
                name: np.concatenate([columns[name], rest[name]])
                for name in self.explorer.responses
            }
        return columns

    def _speculate(
        self,
        state: _State,
        box: FactorBox,
        prefix_points: np.ndarray,
        prefix_columns: dict[str, np.ndarray],
        index: int,
    ) -> None:
        """Guess round ``index + 1`` from the landed prefix and
        prefetch it.

        The guess runs on a *copy* of the state; the real fit and
        acquisition later see the full round exactly as a sequential
        campaign's would, so history, journal and resume stay
        bit-identical.  A guess that cannot fit or optimize is simply
        skipped — speculation must never fail a round.
        """
        guess = _State(
            x_global=(
                np.vstack([state.x_global, prefix_points])
                if state.x_global.size
                else prefix_points.copy()
            ),
            responses={
                name: list(state.responses[name])
                + [float(v) for v in prefix_columns[name]]
                for name in self.explorer.responses
            },
            prev_optimum=state.prev_optimum,
            streak=state.streak,
        )
        try:
            analysis = self._fit_and_diagnose(guess, box, index)
            proposal = self._acquire(guess, box, index, analysis)
        except (FitError, OptimizationError):
            return
        if proposal is None:
            return
        rows = np.atleast_2d(proposal.points)
        self._speculation = (
            index + 1,
            {_point_key(row) for row in rows},
        )
        started = self.explorer.engine.prefetch(
            [self.space.point_to_dict(row) for row in rows]
        )
        state.speculated += int(started)

    def _score_speculation(
        self, state: _State, index: int, points: np.ndarray
    ) -> None:
        """Count how much of a real plan the speculation predicted."""
        speculation = getattr(self, "_speculation", None)
        if speculation is None or speculation[0] != index:
            return
        self._speculation = None
        _, keys = speculation
        state.speculative_hits += sum(
            1 for row in np.atleast_2d(points) if _point_key(row) in keys
        )

    def _evaluate(
        self, points: np.ndarray, index: int
    ) -> dict[str, np.ndarray]:
        """Run a round's batch through the engine, chunked for
        durability (see the module docstring)."""
        chunk = self.config.eval_chunk
        if chunk is None:
            backend = getattr(self.explorer.engine, "backend", None)
            chunk = (
                1
                if getattr(backend, "name", "serial") == "serial"
                else len(points)
            )
        columns: dict[str, list[float]] = {
            name: [] for name in self.explorer.responses
        }
        for start in range(0, len(points), max(chunk, 1)):
            part = points[start : start + max(chunk, 1)]
            result = self.explorer.run_matrix(
                part, kind="campaign-round", meta={"round": index}
            )
            for name in self.explorer.responses:
                columns[name].extend(result.responses[name].tolist())
        return {
            name: np.asarray(values) for name, values in columns.items()
        }

    # -- fit / diagnose / optimize ----------------------------------------------

    def _fit_and_diagnose(
        self, state: _State, box: FactorBox, index: int
    ) -> dict:
        mask = box.contains(state.x_global)
        if not np.any(mask):  # pragma: no cover - defensive
            raise FitError(f"round {index}: no evaluated points in box")
        fit_index = np.flatnonzero(mask)
        x_local = box.to_local(state.x_global[mask])
        columns = {
            name: np.asarray(state.responses[name])[mask]
            for name in self.explorer.responses
        }
        result = ExplorationResult(
            design=Design(
                matrix=x_local, kind="campaign-fit", meta={"round": index}
            ),
            x_coded=x_local,
            responses=columns,
            run_seconds=np.zeros(x_local.shape[0]),
        )
        model_used = self.config.model
        try:
            surfaces = self.explorer.fit_surfaces(
                result, model=model_used, transforms=self.transforms
            )
        except FitError:
            # The in-box sample cannot identify the full model (early
            # ascent rounds, thin boxes): a first-order fit still
            # steers, and the next zoom round re-enriches the sample.
            model_used = "linear"
            surfaces = self.explorer.fit_surfaces(
                result, model=model_used, transforms=self.transforms
            )

        cv_per_response: dict[str, float | None] = {}
        loo_max = np.zeros(x_local.shape[0])
        lof_p: float | None = None
        for name in self.objective.responses:
            surface = surfaces[name]
            base = (
                surface.base
                if isinstance(surface, TransformedSurface)
                else surface
            )
            span = float(base.y_train.max() - base.y_train.min())
            press_value = press(base)
            if np.isfinite(press_value) and span > 0.0:
                cv = float(
                    np.sqrt(press_value / base.stats.n) / span
                )
            elif span == 0.0:
                cv = 0.0  # constant response: the fit is exact
            else:
                cv = None  # saturated fit: leverage-1 runs
            cv_per_response[name] = cv
            loo = np.abs(loo_residuals(base))
            loo = np.where(np.isfinite(loo), loo, 0.0)
            if span > 0.0:
                loo_max = np.maximum(loo_max, loo / span)
            table = anova_table(base)
            try:
                p_value = table.row("lack-of-fit").p_value
            except FitError:
                p_value = float("nan")
            if np.isfinite(p_value):
                lof_p = (
                    p_value if lof_p is None else min(lof_p, p_value)
                )
        finite = [v for v in cv_per_response.values() if v is not None]
        cv_error = max(finite) if finite else None

        outcome, relaxed = self._optimize(surfaces)
        optimum_global = np.clip(
            box.to_global(outcome.x_coded), -1.0, 1.0
        )
        predictions = {
            name: float(
                surfaces[name].predict(
                    np.atleast_2d(outcome.x_coded)
                )[0]
            )
            for name in self.objective.responses
        }
        quality = result.design.quality(model_used)
        objective_surface = None
        if self.objective.response is not None:
            surface = surfaces[self.objective.response]
            objective_surface = (
                surface.base
                if isinstance(surface, TransformedSurface)
                else surface
            )
        return {
            "surfaces": surfaces,
            "outcome": outcome,
            "objective_surface": objective_surface,
            "optimum_global": optimum_global,
            "predictions": predictions,
            "cv_error": cv_error,
            "cv_per_response": cv_per_response,
            "lack_of_fit_p": lof_p,
            "loo_error": loo_max,
            "fit_index": fit_index,
            "model_used": model_used,
            "relaxed": relaxed,
            "quality": {
                "d_efficiency": float(quality["d_efficiency"]),
                "condition_number": float(quality["condition_number"]),
            },
            "n_fit": int(x_local.shape[0]),
        }

    def _optimize(self, surfaces) -> tuple[OptimizationOutcome, bool]:
        if self.objective.desirability is None:
            outcome = optimize_surface(
                surfaces[self.objective.response],
                maximize=self.objective.maximize,
            )
            return outcome, False
        try:
            return (
                optimize_desirability(
                    surfaces, self.objective.desirability
                ),
                False,
            )
        except OptimizationError:
            # All-zero desirability on the scan grid: every hard
            # constraint vetoes everywhere.  Steer by the *relaxed*
            # (arithmetic-mean, non-vetoing) desirability so the
            # campaign walks toward feasibility instead of dying.
            return self._relaxed_optimum(surfaces), True

    def _relaxed_optimum(self, surfaces) -> OptimizationOutcome:
        d = self.objective.desirability
        names = list(d.response_names)
        grid = coded_grid(surfaces[names[0]].k, 7)
        predictions = shared_predictor(surfaces, names)(grid)
        total = np.zeros(grid.shape[0])
        for name in names:
            part = d.parts[name]
            weight = d.importances[name]
            total += weight * part.vectorized(predictions[name])
        best = int(np.argmax(total))
        responses = {
            name: float(predictions[name][best]) for name in names
        }
        return OptimizationOutcome(
            x_coded=grid[best].copy(),
            value=float(d(responses)),
            responses=responses,
            evaluations=grid.shape[0],
        )

    # -- acquisition --------------------------------------------------------------

    def _acquire(
        self, state: _State, box: FactorBox, index: int, analysis: dict
    ) -> Proposal | None:
        cfg = self.config
        strategy = resolve_acquisition(cfg.acquisition)
        ctx = RoundContext(
            round_index=index,
            box=box,
            surfaces=analysis["surfaces"],
            outcome=analysis["outcome"],
            objective_surface=analysis["objective_surface"],
            optimum_global=analysis["optimum_global"],
            x_global=state.x_global,
            loo_error=analysis["loo_error"],
            fit_index=analysis["fit_index"],
            cv_error=analysis["cv_error"],
            lack_of_fit_p=analysis["lack_of_fit_p"],
            batch=cfg.batch,
            seed=self._seed_for(index + 1),
            shrink=cfg.shrink,
            min_half_width=cfg.min_half_width,
        )
        proposal = strategy.propose(ctx)
        points = self._dedupe(proposal.points, state.x_global)
        points = self._top_up(points, proposal.box, state, index)
        if points.shape[0] == 0:
            return None
        return Proposal(
            points=points,
            box=proposal.box,
            reason=proposal.reason,
            strategy=proposal.strategy,
        )

    @staticmethod
    def _dedupe(
        points: np.ndarray, existing: np.ndarray
    ) -> np.ndarray:
        seen = {_point_key(row) for row in np.atleast_2d(existing)}
        out = []
        for row in np.atleast_2d(points):
            key = _point_key(row)
            if key in seen:
                continue
            seen.add(key)
            out.append(row)
        return (
            np.array(out)
            if out
            else np.empty((0, np.atleast_2d(points).shape[1]))
        )

    def _top_up(
        self,
        points: np.ndarray,
        box: FactorBox,
        state: _State,
        index: int,
    ) -> np.ndarray:
        """Guarantee the next fit is identifiable: enough points must
        land inside the next box to estimate the model (plus margin)."""
        needed = self._model_spec(self.config.model).p + 2
        have = int(np.count_nonzero(box.contains(state.x_global)))
        if points.size:
            have += int(
                np.count_nonzero(box.contains(points))
            )
        missing = needed - have
        if missing <= 0:
            return points
        from repro.core.doe.lhs import latin_hypercube

        extra_local = latin_hypercube(
            max(missing, 2),
            box.k,
            seed=(self._seed_for(index + 1) + 7919) % (2**31),
        ).matrix[: max(missing, 2)]
        extra = np.clip(box.to_global(extra_local), -1.0, 1.0)
        merged = (
            np.vstack([points, extra]) if points.size else extra
        )
        return self._dedupe(merged, state.x_global)

    # -- replay / results ----------------------------------------------------------

    def _replay_round(
        self,
        state: _State,
        index: int,
        planned: dict,
        completed: dict | None,
    ) -> None:
        """Rebuild in-memory state from one journaled, completed round
        without evaluating anything."""
        if completed is None:  # pragma: no cover - defensive
            raise ReproError(f"round {index} journaled as complete but empty")
        points = np.atleast_2d(np.asarray(planned["points"], dtype=float))
        state.x_global = (
            np.vstack([state.x_global, points])
            if state.x_global.size
            else points.copy()
        )
        responses = completed.get("responses") or {}
        for name in self.explorer.responses:
            values = responses.get(name)
            if values is None or len(values) != points.shape[0]:
                raise ReproError(
                    f"journaled round {index} is missing responses for "
                    f"{name!r}; cannot resume"
                )
            state.responses[name].extend(float(v) for v in values)
        entry = {
            k: v
            for k, v in completed.items()
            if k not in ("responses", "exec", "next")
        }
        if completed.get("next") is not None:
            entry["_next"] = completed["next"]
        state.history.append(entry)
        state.prev_optimum = np.asarray(
            entry["optimum_coded"], dtype=float
        )
        state.streak = int(entry.get("streak", 0))

    def _history_entry(
        self,
        state: _State,
        index: int,
        plan: dict,
        box: FactorBox,
        points: np.ndarray,
        analysis: dict,
        shift: float | None,
        stop: str | None,
    ) -> dict:
        outcome = analysis["outcome"]
        digest = hashlib.sha256(
            json.dumps(
                {
                    "points": _jsonify(points),
                    "responses": {
                        name: state.responses[name][-points.shape[0]:]
                        for name in self.explorer.responses
                    },
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        ).hexdigest()
        value = float(outcome.value)
        score = (
            value
            if self.objective.desirability is not None
            or self.objective.maximize
            else -value
        )
        return {
            "round": index,
            "box": box.as_dict(),
            "box_physical": _jsonify(
                self.space.point_to_dict(box.center)
            ),
            "n_points": int(points.shape[0]),
            "n_fit": analysis["n_fit"],
            "reason": plan.get("reason", ""),
            "strategy": plan.get("strategy", ""),
            "model": analysis["model_used"],
            "optimum_coded": _jsonify(analysis["optimum_global"]),
            "optimum_value": value,
            "score": float(score),
            "relaxed": bool(analysis["relaxed"]),
            "predictions": _jsonify(analysis["predictions"]),
            "shift": shift,
            "streak": int(state.streak),
            "cv_error": analysis["cv_error"],
            "cv_per_response": _jsonify(analysis["cv_per_response"]),
            "lack_of_fit_p": analysis["lack_of_fit_p"],
            "design_quality": analysis["quality"],
            "stop_reason": stop,
            "data_digest": digest,
        }

    def _build_result(
        self, state: _State, stop: str
    ) -> CampaignResult:
        history = [
            {k: v for k, v in entry.items() if k != "_next"}
            for entry in state.history
        ]
        last = history[-1]
        best_coded = np.asarray(last["optimum_coded"], dtype=float)
        best = {
            "x_coded": _jsonify(best_coded),
            "point": _jsonify(self.space.point_to_dict(best_coded)),
            "value": last["optimum_value"],
            "score": last["score"],
            "predictions": last["predictions"],
        }
        scores = []
        n = state.x_global.shape[0]
        for i in range(n):
            responses = {
                name: state.responses[name][i]
                for name in self.objective.responses
            }
            scores.append(self.objective.score(responses))
        best_i = int(np.argmax(scores)) if scores else 0
        best_evaluated = {
            "x_coded": _jsonify(state.x_global[best_i]),
            "point": _jsonify(
                self.space.point_to_dict(state.x_global[best_i])
            ),
            "responses": {
                name: state.responses[name][best_i]
                for name in self.explorer.responses
            },
            "score": float(scores[best_i]) if scores else float("nan"),
        }
        return CampaignResult(
            campaign_id=self.campaign_id,
            converged=stop in CONVERGED_REASONS,
            stop_reason=stop,
            history=history,
            best=best,
            best_evaluated=best_evaluated,
            evaluations={
                "simulated": state.simulated,
                "cached": state.cached,
                "degraded": state.degraded,
                "speculated": state.speculated,
                "speculative_hits": state.speculative_hits,
                "total_points": int(n),
            },
            surfaces=dict(state.surfaces),
        )
