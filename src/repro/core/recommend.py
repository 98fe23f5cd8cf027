"""The scheduling recommendation engine (the paper's Table II + §VIII).

Two static strategies are provided — both decide without running the
workflow, which is the paper's stated goal for future workflow schedulers:

* ``"table2"`` — a literal rule engine encoding the ten rows of Table II
  over the feature classes of :mod:`repro.core.features` (with the
  bandwidth-bound refinement §VI uses to separate rows 3 and 5).
* ``"model"`` — the §VIII logic made quantitative: price the placement by
  comparing analytic local/remote component profiles, then choose the
  execution mode by weighing the overlap benefit of parallel execution
  against the expected contention penalty at the workflow's effective
  device concurrency.

``"hybrid"`` (default) applies Table II where a row matches and falls back
to the cost model for workflows outside the table's coverage.

The exhaustive oracle in :mod:`repro.core.autotune` is the ground truth the
engine is validated against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.configs import P_LOCR, P_LOCW, S_LOCR, S_LOCW, SchedulerConfig
from repro.core.features import (
    ConcurrencyClass,
    IntensityClass,
    SizeClass,
    WorkflowFeatures,
    extract_features,
)
from repro.errors import ConfigurationError
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.workflow.spec import WorkflowSpec

_STRATEGIES = ("table2", "model", "hybrid")


@dataclass(frozen=True)
class Recommendation:
    """A configuration choice plus the evidence behind it."""

    config: SchedulerConfig
    strategy: str
    reason: str
    features: WorkflowFeatures
    matched_rule: Optional[int] = None  # Table II row number, when applicable


@dataclass(frozen=True)
class PlacementEstimates:
    """The §VIII serial-runtime estimates under each channel placement.

    These are the cost model's placement prices, exposed on their own
    because they double as a *predicted makespan* — which is what lets the
    service scheduler order jobs shortest-predicted-first without running
    anything.  ``t_locw_seconds`` / ``t_locr_seconds`` keep the original
    scalar formulas bit-for-bit (Table II output depends on them).
    """

    t_locw_seconds: float
    t_locr_seconds: float

    @property
    def local_write_preferred(self) -> bool:
        return self.t_locw_seconds <= self.t_locr_seconds

    @property
    def best_seconds(self) -> float:
        """The cheaper placement's serial estimate (a makespan proxy)."""
        return min(self.t_locw_seconds, self.t_locr_seconds)


# ---------------------------------------------------------------------------
# Table II rules.
# ---------------------------------------------------------------------------

_ANY_CONCURRENCY = frozenset(ConcurrencyClass)
_NIL_OR_LOW = frozenset({IntensityClass.NIL, IntensityClass.LOW})
_MED_OR_HIGH = frozenset({IntensityClass.MEDIUM, IntensityClass.HIGH})


@dataclass(frozen=True)
class Table2Rule:
    """One row of Table II as a feature predicate.

    ``None`` fields are wildcards.  ``write_bound`` refines rows that Table
    II distinguishes only through its "Illustrative Workflows" column (the
    §VI-A/§VI-B bandwidth-constraint criterion).
    """

    row: int
    config: SchedulerConfig
    description: str
    sim_compute: Optional[Set[IntensityClass]] = None
    sim_write: Optional[Set[IntensityClass]] = None
    analytics_compute: Optional[Set[IntensityClass]] = None
    analytics_read: Optional[Set[IntensityClass]] = None
    object_size: Optional[SizeClass] = None
    concurrency: Set[ConcurrencyClass] = field(default_factory=lambda: set(_ANY_CONCURRENCY))
    write_bound: Optional[bool] = None

    def matches(self, f: WorkflowFeatures) -> bool:
        if self.sim_compute is not None and f.sim_compute_class not in self.sim_compute:
            return False
        if self.sim_write is not None and f.sim_write_class not in self.sim_write:
            return False
        if (
            self.analytics_compute is not None
            and f.analytics_compute_class not in self.analytics_compute
        ):
            return False
        if (
            self.analytics_read is not None
            and f.analytics_read_class not in self.analytics_read
        ):
            return False
        if self.object_size is not None and f.object_size is not self.object_size:
            return False
        if f.concurrency not in self.concurrency:
            return False
        if self.write_bound is not None and f.write_bandwidth_bound is not self.write_bound:
            return False
        return True


def table2_rules() -> Tuple[Table2Rule, ...]:
    """The ten rows of Table II, in paper order."""
    NIL = {IntensityClass.NIL}
    LOW = {IntensityClass.LOW}
    HIGH = {IntensityClass.HIGH}
    return (
        # 1: pure-I/O large-object benchmark at any concurrency.
        Table2Rule(
            row=1,
            config=S_LOCW,
            description="I/O-only components, large objects (64MB workflows)",
            sim_compute=NIL,
            analytics_compute=NIL,
            analytics_read=HIGH,
            object_size=SizeClass.LARGE,
        ),
        # 2: compute-heavy sim, large objects, high concurrency (GTC @24).
        Table2Rule(
            row=2,
            config=S_LOCW,
            description="compute-heavy sim, large objects, high concurrency (GTC @24)",
            sim_compute=HIGH,
            sim_write=set(_NIL_OR_LOW) | {IntensityClass.MEDIUM},
            # The paper lists "medium, high" analytics reads; we leave the
            # column unconstrained because our GTC+MatrixMult read class
            # sits exactly on the low/medium boundary and the remaining
            # predicates already identify the row uniquely.
            object_size=SizeClass.LARGE,
            concurrency={ConcurrencyClass.HIGH},
        ),
        # 3: I/O-heavy small-object sim saturating write bandwidth
        # (miniAMR+Read-Only @24).
        Table2Rule(
            row=3,
            config=S_LOCW,
            description="I/O-heavy small-object sim, write-bound (miniAMR+RO @24)",
            sim_compute=set(_NIL_OR_LOW),
            sim_write=HIGH,
            analytics_compute=set(_NIL_OR_LOW),
            analytics_read=HIGH,
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.HIGH},
            write_bound=True,
        ),
        # 4: I/O-heavy sim + compute-heavy analytics, small objects,
        # medium/high concurrency (miniAMR+MatrixMult @16/@24).
        Table2Rule(
            row=4,
            config=S_LOCW,
            description="I/O-heavy sim, compute-heavy analytics (miniAMR+MM @16/@24)",
            sim_compute=set(_NIL_OR_LOW),
            sim_write=HIGH,
            analytics_compute=HIGH,
            analytics_read=set(_NIL_OR_LOW) | {IntensityClass.MEDIUM},
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.MEDIUM, ConcurrencyClass.HIGH},
        ),
        # 5: small objects, high concurrency, but software-bound (2K @24).
        Table2Rule(
            row=5,
            config=S_LOCR,
            description="small objects, high concurrency, not write-bound (2K @24)",
            sim_compute=set(_NIL_OR_LOW),
            sim_write=HIGH,
            analytics_compute=NIL,
            analytics_read=HIGH,
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.HIGH},
            write_bound=False,
        ),
        # 6: compute-heavy sim, large objects, medium concurrency (GTC+RO @16).
        Table2Rule(
            row=6,
            config=S_LOCR,
            description="compute-heavy sim, large objects, medium concurrency (GTC+RO @16)",
            sim_compute=HIGH,
            analytics_compute=set(_NIL_OR_LOW),
            analytics_read=set(_MED_OR_HIGH),
            object_size=SizeClass.LARGE,
            concurrency={ConcurrencyClass.MEDIUM},
        ),
        # 7: I/O-heavy small-object sim at medium concurrency, not yet
        # write-bound (miniAMR+RO @16).
        Table2Rule(
            row=7,
            config=S_LOCR,
            description="I/O-heavy small-object sim, medium concurrency (miniAMR+RO @16)",
            sim_compute=LOW,
            sim_write=HIGH,
            analytics_compute=set(_NIL_OR_LOW),
            analytics_read=HIGH,
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.MEDIUM},
            write_bound=False,
        ),
        # 8: I/O-heavy sim + compute-heavy analytics at low concurrency
        # (miniAMR+MM @8).
        Table2Rule(
            row=8,
            config=P_LOCW,
            description="I/O-heavy sim, compute-heavy analytics, low concurrency (miniAMR+MM @8)",
            sim_compute=set(_NIL_OR_LOW),
            sim_write=HIGH,
            analytics_compute=HIGH,
            analytics_read=set(_NIL_OR_LOW) | {IntensityClass.MEDIUM},
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.LOW},
        ),
        # 9: small objects at low/medium concurrency, read-dominated
        # analytics (2K @8/@16, miniAMR+RO @8).
        Table2Rule(
            row=9,
            config=P_LOCR,
            description="small objects, low/medium concurrency (2K @8/@16, miniAMR+RO @8)",
            sim_compute=set(_NIL_OR_LOW),
            sim_write=HIGH,
            analytics_compute=set(_NIL_OR_LOW),
            analytics_read=set(_MED_OR_HIGH),
            object_size=SizeClass.SMALL,
            concurrency={ConcurrencyClass.LOW, ConcurrencyClass.MEDIUM},
            write_bound=False,
        ),
        # 10: compute-heavy sim, large objects, low/medium concurrency
        # (GTC+RO @8, GTC+MM @8/@16).
        Table2Rule(
            row=10,
            config=P_LOCR,
            description="compute-heavy sim, large objects, low/medium concurrency (GTC @8, GTC+MM @16)",
            sim_compute=HIGH,
            analytics_read=set(_MED_OR_HIGH) | {IntensityClass.LOW},
            object_size=SizeClass.LARGE,
            concurrency={ConcurrencyClass.LOW, ConcurrencyClass.MEDIUM},
        ),
    )


# ---------------------------------------------------------------------------
# Cost-model parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModelParameters:
    """Free parameters of the §VIII cost-model recommender."""

    #: Half-saturation of the contention penalty in effective-concurrency
    #: units: penalty = x^2 / (x^2 + theta^2) with x the combined duty-
    #: weighted I/O-burst concurrency of both components.
    contention_theta: float = 14.0
    #: Weight of the burst-collision probability: the penalty only applies
    #: while both components are in their I/O phases simultaneously.
    collision_exponent: float = 1.0


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


#: Bound on the engine's keyed feature cache (FIFO eviction beyond this).
_FEATURE_CACHE_MAX = 512


class RecommendationEngine:
    """Static scheduler-configuration recommender.

    Parameters
    ----------
    strategy:
        ``"table2"``, ``"model"``, or ``"hybrid"`` (Table II first, cost
        model when no row matches).
    cal:
        Device calibration used for feature extraction.
    params:
        Cost-model tuning knobs.
    cache:
        Keep a keyed cache of extracted features.  Sweeps and service
        passes price the same (workflow, calibration) pair many times —
        ordering, recommending, and regret-scoring each re-derived the
        four standalone profiles from scratch.  The cache is keyed on the
        frozen spec itself, so two structurally identical specs share one
        extraction; :meth:`invalidate_cache` flushes it and bumps
        :attr:`cache_token` (the token a caller can record to prove which
        cache generation priced its results).
    """

    def __init__(
        self,
        strategy: str = "hybrid",
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        params: CostModelParameters = CostModelParameters(),
        cache: bool = True,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        self.strategy = strategy
        self.cal = cal
        self.params = params
        self._rules = table2_rules()
        self._cache_enabled = bool(cache)
        self._features_cache: "OrderedDict[WorkflowSpec, WorkflowFeatures]" = (
            OrderedDict()
        )
        self._cache_token = 0
        self._cache_hits = 0
        self._cache_misses = 0

    # -- feature cache --------------------------------------------------
    @property
    def cache_token(self) -> int:
        """Generation counter: bumped by every :meth:`invalidate_cache`."""
        return self._cache_token

    def invalidate_cache(self) -> int:
        """Drop all cached features; returns the new generation token."""
        self._features_cache.clear()
        self._cache_token += 1
        return self._cache_token

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "entries": len(self._features_cache),
            "token": self._cache_token,
        }

    def features_of(self, spec: WorkflowSpec) -> WorkflowFeatures:
        """Extract (or recall) the features of *spec* under this engine's
        calibration — the cached entry point every pricing path shares."""
        if not self._cache_enabled:
            return extract_features(spec, self.cal)
        try:
            cached = self._features_cache.get(spec)
        except TypeError:  # unhashable custom kernel: price uncached
            return extract_features(spec, self.cal)
        if cached is not None:
            self._cache_hits += 1
            self._features_cache.move_to_end(spec)
            return cached
        self._cache_misses += 1
        features = extract_features(spec, self.cal)
        self._features_cache[spec] = features
        if len(self._features_cache) > _FEATURE_CACHE_MAX:
            self._features_cache.popitem(last=False)
        return features

    # ------------------------------------------------------------------
    def recommend(self, spec: WorkflowSpec) -> Recommendation:
        """Recommend a configuration for *spec*."""
        features = self.features_of(spec)
        if self.strategy in ("table2", "hybrid"):
            matched = self._match_table2(features)
            if matched is not None:
                rule = matched
                return Recommendation(
                    config=rule.config,
                    strategy="table2",
                    reason=f"Table II row {rule.row}: {rule.description}",
                    features=features,
                    matched_rule=rule.row,
                )
            if self.strategy == "table2":
                raise ConfigurationError(
                    f"no Table II row matches workflow {spec.name!r}; "
                    "use strategy='hybrid' or 'model'"
                )
        return self._model_recommendation(features)

    def _match_table2(self, features: WorkflowFeatures) -> Optional[Table2Rule]:
        for rule in self._rules:
            if rule.matches(features):
                return rule
        return None

    # ------------------------------------------------------------------
    def placement_estimates(self, f: WorkflowFeatures) -> PlacementEstimates:
        """Serial-runtime estimate under each placement (§VIII pricing).

        Total runtime if the two components ran serially, from the
        analytic local/remote standalone profiles.  The estimates keep
        their original float expressions exactly.
        """
        iters = f.iterations
        return PlacementEstimates(
            t_locw_seconds=iters
            * (
                f.sim_profile.iteration_seconds
                + f.analytics_remote_profile.iteration_seconds
            ),
            t_locr_seconds=iters
            * (
                f.sim_remote_profile.iteration_seconds
                + f.analytics_profile.iteration_seconds
            ),
        )

    def estimate_makespan(self, spec: WorkflowSpec) -> float:
        """Predicted makespan of *spec* under its best placement (seconds).

        A static price, not a simulation — used by the service scheduler
        for shortest-predicted-job-first ordering.
        """
        return self.placement_estimates(self.features_of(spec)).best_seconds

    def _model_recommendation(self, f: WorkflowFeatures) -> Recommendation:
        """Quantified §VIII logic: price placement, then execution mode."""
        iters = f.iterations
        estimates = self.placement_estimates(f)
        t_locw = estimates.t_locw_seconds
        t_locr = estimates.t_locr_seconds
        if estimates.local_write_preferred:
            local_write = True
            writer_profile = f.sim_profile
            reader_profile = f.analytics_remote_profile
            serial_total = t_locw
            placement_reason = (
                f"local-write serial estimate {t_locw:.2f}s <= "
                f"local-read {t_locr:.2f}s"
            )
        else:
            local_write = False
            writer_profile = f.sim_remote_profile
            reader_profile = f.analytics_profile
            serial_total = t_locr
            placement_reason = (
                f"local-read serial estimate {t_locr:.2f}s < "
                f"local-write {t_locw:.2f}s"
            )

        # Execution mode: overlap benefit vs contention penalty.
        t_writer = iters * writer_profile.iteration_seconds
        t_reader = iters * reader_profile.iteration_seconds
        overlap_benefit = (
            min(t_writer, t_reader) / serial_total if serial_total > 0 else 0.0
        )
        burst = (
            writer_profile.effective_concurrency
            + reader_profile.effective_concurrency
        )
        theta = self.params.contention_theta
        saturation = burst * burst / (burst * burst + theta * theta)
        collision = min(writer_profile.io_index, reader_profile.io_index)
        penalty = saturation * collision ** self.params.collision_exponent
        parallel = overlap_benefit > penalty

        if local_write:
            config = P_LOCW if parallel else S_LOCW
        else:
            config = P_LOCR if parallel else S_LOCR
        mode_reason = (
            f"overlap benefit {overlap_benefit:.2f} "
            f"{'>' if parallel else '<='} contention penalty {penalty:.2f} "
            f"(burst concurrency {burst:.1f})"
        )
        return Recommendation(
            config=config,
            strategy="model",
            reason=f"{placement_reason}; {mode_reason}",
            features=f,
        )
