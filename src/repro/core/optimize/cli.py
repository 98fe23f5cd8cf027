"""``python -m repro.core.optimize`` — solve / pareto / validate / compare.

Every verb prices the four Table I configurations of each workflow by
simulating them.  The optimizer's four verbs:

* ``solve`` — the cheapest exact-frontier point under the budget
  constraint for a scenario; write it as ``repro.optimize.plan/v3`` JSON
  that ``repro-service run --plan`` can consume.
* ``pareto`` — the scenario's ε-dominance frontier as
  ``repro.optimize.frontier/v2`` JSON (byte-identical across runs),
  with the heuristic plan located relative to the frontier.
* ``validate`` — re-derive the paper's 18 Table II recommendations from
  first principles (simulation-priced candidate argmin) and self-check
  the frontier schema + determinism.  Exit 0 iff every paper pick is
  ε-optimal and at most one is beaten outright (the documented
  miniamr+matmult@16 deviation, where the optimizer's pick is ~7%
  faster than the paper's).
* ``compare`` — optimizer pick vs the heuristic recommender, one diff
  line per disagreement.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional, Tuple

from repro.apps.suite import (
    CONCURRENCY_LEVELS,
    FAMILIES,
    build_workflow,
    workflow_suite,
)
from repro.core.autotune import ExhaustiveTuner
from repro.core.optimize.backends import solve
from repro.core.optimize.model import Scenario, ScenarioLimits
from repro.core.optimize.pareto import (
    enumerate_frontier,
    frontier_json,
    frontier_payload,
    validate_frontier,
)
from repro.core.optimize.pricing import SimulationPricer
from repro.errors import ConfigurationError
from repro.platform.builder import paper_testbed
from repro.units import GB, fmt_bytes

#: ε-optimality band for the Table II re-derivation: the paper's pick
#: must price within this fraction of the candidate minimum.  0.08 covers
#: the one documented simulator-vs-paper deviation (miniamr+matmult@16,
#: +7.65%) without excusing a second one.
VALIDATE_EPSILON = 0.08

#: Strict-argmin floor for ``validate``: the seed reproduces 17/18 panels
#: exactly; fewer means the simulator or the pricing regressed.
VALIDATE_STRICT_FLOOR = 17


def parse_workflow_key(key: str) -> Tuple[str, int]:
    """Parse ``family@ranks`` (e.g. ``miniamr+matmult@16``)."""
    family, sep, ranks_text = key.partition("@")
    if not sep:
        raise ConfigurationError(
            f"workflow key {key!r} is not of the form family@ranks"
        )
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown family {family!r}; choices: {list(FAMILIES)}"
        )
    try:
        ranks = int(ranks_text)
    except ValueError:
        raise ConfigurationError(
            f"workflow key {key!r} has a non-integer rank count"
        ) from None
    return family, ranks


def build_scenario(
    keys: List[str],
    pmem_budget_bytes: Optional[int] = None,
    tuner: Optional[ExhaustiveTuner] = None,
) -> Scenario:
    """Price every workflow of *keys* and wrap them with platform limits.

    Prices come from *tuner* (a fresh :class:`ExhaustiveTuner` by default):
    workflows it already tuned cost no simulation.
    """
    pricer = SimulationPricer(tuner)
    node = paper_testbed(pricer.tuner.cal)
    limits = ScenarioLimits.from_node(node, pmem_budget_bytes)
    choices = []
    for key in keys:
        family, ranks = parse_workflow_key(key)
        spec = build_workflow(family, ranks)
        choices.append(pricer.price(spec, family, ranks))
    return Scenario(choices=tuple(choices), limits=limits)


def _scenario_keys(args: argparse.Namespace) -> List[str]:
    if args.workflows:
        return list(args.workflows)
    return [
        f"{family}@{ranks}"
        for family in FAMILIES
        for ranks in CONCURRENCY_LEVELS
    ]


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    budget = (
        int(args.pmem_budget * GB) if args.pmem_budget is not None else None
    )
    return build_scenario(_scenario_keys(args), pmem_budget_bytes=budget)


def _heuristic_summary(scenario: Scenario) -> Dict[str, object]:
    """The heuristic recommender's plan, scored on the same objectives."""
    picks = {
        choice.key: choice.heuristic_candidate
        for choice in scenario.choices
    }
    return {
        "selections": {key: c.key for key, c in sorted(picks.items())},
        "makespan_seconds": sum(c.makespan_seconds for c in picks.values()),
        "pmem_bytes": sum(c.pmem_bytes for c in picks.values()),
    }


def _print_point(scenario: Scenario, index: int, record, marker: str = ""):
    print(
        f"  [{index}] {record['makespan_seconds']:.3f}s, "
        f"{fmt_bytes(record['pmem_bytes'])} PMEM{marker}"
    )
    for key in sorted(record["selections"]):
        print(
            f"      {key}: {record['selections'][key]}"
            f" — {record['why'][key]}"
        )


# ----------------------------------------------------------------------
def cmd_solve(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    plan = solve(scenario)
    payload = plan.as_record(scenario)
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"[plan -> {args.out}]", file=sys.stderr)
    print(
        f"plan: {plan.makespan_seconds:.3f}s makespan, "
        f"{fmt_bytes(plan.pmem_bytes)} PMEM"
        + ("" if plan.feasible else "  [INFEASIBLE: budget cannot be met]")
    )
    for key, cand_key in plan.selections:
        candidate = scenario.choices_of(key).candidate(cand_key)
        print(f"  {key}: {cand_key} — {candidate.why}")
    return 0 if plan.feasible else 1


def cmd_pareto(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    points, truncated = enumerate_frontier(scenario, epsilon=args.epsilon)
    heuristic = _heuristic_summary(scenario)
    payload = frontier_payload(
        scenario, points, args.epsilon, truncated, heuristic=heuristic
    )
    text = frontier_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[frontier -> {args.out}]", file=sys.stderr)
    if not points:
        print("frontier: empty (PMEM budget infeasible)")
        return 1
    print(
        f"frontier: {len(points)} non-dominated point(s) "
        f"(epsilon {args.epsilon})"
        + ("  [truncated]" if truncated else "")
    )
    for index, record in enumerate(payload["points"]):
        marker = "  <-- makespan-optimal" if index == 0 else ""
        _print_point(scenario, index, record, marker)
    optimal = payload["points"][0]
    heuristic_selections = heuristic["selections"]
    if heuristic_selections != optimal["selections"]:
        gain = (
            heuristic["makespan_seconds"] / optimal["makespan_seconds"] - 1.0
            if optimal["makespan_seconds"] > 0
            else 0.0
        )
        print(
            f"beats the heuristic: frontier point [0] is {gain:+.1%} "
            f"faster than the heuristic plan "
            f"({heuristic['makespan_seconds']:.3f}s, "
            f"{fmt_bytes(int(heuristic['pmem_bytes']))} PMEM)"
        )
        for key in sorted(heuristic_selections):
            chosen = optimal["selections"][key]
            if heuristic_selections[key] != chosen:
                print(
                    f"  {key}: {heuristic_selections[key]} -> {chosen}"
                    f" — {optimal['why'][key]}"
                )
    else:
        print("heuristic plan is the makespan-optimal frontier point")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    tuner = ExhaustiveTuner()
    pricer = SimulationPricer(tuner)
    entries = workflow_suite()
    strict_hits = 0
    eps_hits = 0
    beats: List[str] = []
    print(
        "Table II re-derivation (simulation-priced candidate argmin, "
        f"epsilon {VALIDATE_EPSILON:.2f}):"
    )
    for entry in entries:
        choices = pricer.price(entry.spec, entry.family, entry.ranks)
        best = choices.makespan_best
        paper = choices.candidate(entry.paper_best)
        strict = best.key == entry.paper_best
        within = paper.makespan_seconds <= best.makespan_seconds * (
            1.0 + VALIDATE_EPSILON
        )
        strict_hits += strict
        eps_hits += within
        if strict:
            status = "ok"
        elif within:
            status = "eps-ok"
            gain = paper.makespan_seconds / best.makespan_seconds - 1.0
            beats.append(
                f"beats the paper: {choices.key} {best.key} "
                f"{best.makespan_seconds:.3f}s vs {entry.paper_best} "
                f"{paper.makespan_seconds:.3f}s ({gain:+.1%}) — {best.why}"
            )
        else:
            status = "MISS"
        print(
            f"  {choices.key:>20}  paper {entry.paper_best}  "
            f"optimizer {best.key}  [{status}] — {best.why}"
        )
    n = len(entries)
    print(
        f"re-derived {eps_hits}/{n} (epsilon-optimal), "
        f"strict argmin {strict_hits}/{n}, {len(beats)} beats-paper"
    )
    for line in beats:
        print(line)

    # Frontier self-check: schema-valid and byte-deterministic, priced
    # from the runs the re-derivation above already simulated.
    def _demo_frontier() -> str:
        scenario = build_scenario(
            ["micro-64mb@8", "micro-2k@8", "miniamr+matmult@8"],
            tuner=tuner,
        )
        points, truncated = enumerate_frontier(scenario, epsilon=0.01)
        payload = frontier_payload(
            scenario,
            points,
            0.01,
            truncated,
            heuristic=_heuristic_summary(scenario),
        )
        problems = validate_frontier(payload)
        if problems:
            raise ConfigurationError(
                "frontier schema check failed: " + "; ".join(problems)
            )
        return frontier_json(payload)

    first, second = _demo_frontier(), _demo_frontier()
    deterministic = first == second
    print(
        "frontier self-check: schema ok, "
        + ("byte-identical across runs" if deterministic else "NOT deterministic")
    )
    ok = eps_hits == n and strict_hits >= VALIDATE_STRICT_FLOOR and deterministic
    print("validate: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    agreements = 0
    diffs = []
    for choice in scenario.choices:
        best = choice.makespan_best
        heuristic = choice.heuristic_candidate
        if best.key == heuristic.key:
            agreements += 1
            continue
        gap = (
            heuristic.makespan_seconds / best.makespan_seconds - 1.0
            if best.makespan_seconds > 0
            else 0.0
        )
        diffs.append(
            f"  {choice.key}: heuristic {heuristic.key} vs optimizer "
            f"{best.key} ({gap:+.1%} makespan) — {best.why}"
        )
    total = len(scenario.choices)
    print(f"optimizer vs heuristic: {agreements}/{total} agree")
    for line in diffs:
        print(line)
    return 0


# ----------------------------------------------------------------------
def _finite_float(text: str) -> float:
    """argparse type: a finite float, so NaN/inf exit 2 before pricing."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workflows",
        nargs="+",
        metavar="FAMILY@RANKS",
        default=None,
        help="scenario workflows (default: the full 18-workflow suite)",
    )
    parser.add_argument(
        "--pmem-budget",
        type=_finite_float,
        default=None,
        metavar="GB",
        help="scenario-wide retained-footprint budget in decimal GB "
        "(default: the testbed's full PMEM capacity)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.optimize",
        description="Global placement optimizer over workflow suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="one plan for a scenario")
    _add_scenario_args(solve)
    solve.add_argument("--out", default=None, help="write plan JSON here")
    solve.set_defaults(func=cmd_solve)

    pareto = sub.add_parser("pareto", help="ε-dominance Pareto frontier")
    _add_scenario_args(pareto)
    pareto.add_argument(
        "--epsilon",
        type=_finite_float,
        default=0.0,
        help="ε-coalescing grid (0 = exact frontier)",
    )
    pareto.add_argument("--out", default=None, help="write frontier JSON here")
    pareto.set_defaults(func=cmd_pareto)

    validate = sub.add_parser(
        "validate",
        help="re-derive Table II (18 panels) + frontier schema self-check",
    )
    validate.set_defaults(func=cmd_validate)

    compare = sub.add_parser(
        "compare", help="optimizer pick vs heuristic recommender"
    )
    _add_scenario_args(compare)
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
