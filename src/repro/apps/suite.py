"""The full 18-workflow suite (§IV-C) with the paper's expected winners.

Six workload families x three concurrency levels:

* microbenchmark with 64 MB objects (Fig. 4) and 2 KB objects (Fig. 5);
* GTC + Read-Only (Fig. 6) and GTC + MatrixMult (Fig. 7);
* miniAMR + Read-Only (Fig. 8) and miniAMR + MatrixMult (Fig. 9).

:data:`PAPER_EXPECTATIONS` records, per figure panel, the configuration the
paper identifies as optimal — the ground truth for the reproduction tests
and the Table II validation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.analytics import (
    MINIAMR_MATMUL_DIM,
    gtc_matrixmult_kernel,
    miniamr_matrixmult_kernel,
    read_only_kernel,
)
from repro.apps.gtc import gtc_workflow
from repro.apps.microbench import (
    LARGE_OBJECT_BYTES,
    SMALL_OBJECT_BYTES,
    micro_workflow,
)
from repro.apps.miniamr import MINIAMR_OBJECTS_PER_RANK, miniamr_workflow
from repro.errors import ConfigurationError
from repro.workflow.spec import WorkflowSpec

#: Concurrency levels: low / medium / high (§IV-B).
CONCURRENCY_LEVELS: Tuple[int, ...] = (8, 16, 24)

#: Workload family identifiers.
FAMILIES: Tuple[str, ...] = (
    "micro-64mb",
    "micro-2k",
    "gtc+readonly",
    "gtc+matmult",
    "miniamr+readonly",
    "miniamr+matmult",
)

#: Paper-reported optimal configuration per (family, ranks), with the
#: figure panel it comes from.
PAPER_EXPECTATIONS: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("micro-64mb", 8): ("S-LocW", "Fig 4a"),
    ("micro-64mb", 16): ("S-LocW", "Fig 4b"),
    ("micro-64mb", 24): ("S-LocW", "Fig 4c"),
    ("micro-2k", 8): ("P-LocR", "Fig 5a"),
    ("micro-2k", 16): ("P-LocR", "Fig 5b"),
    ("micro-2k", 24): ("S-LocR", "Fig 5c"),
    ("gtc+readonly", 8): ("P-LocR", "Fig 6a"),
    ("gtc+readonly", 16): ("S-LocR", "Fig 6b"),
    ("gtc+readonly", 24): ("S-LocW", "Fig 6c"),
    ("gtc+matmult", 8): ("P-LocR", "Fig 7a"),
    ("gtc+matmult", 16): ("P-LocR", "Fig 7b"),
    ("gtc+matmult", 24): ("S-LocW", "Fig 7c"),
    ("miniamr+readonly", 8): ("P-LocR", "Fig 8a"),
    ("miniamr+readonly", 16): ("S-LocR", "Fig 8b"),
    ("miniamr+readonly", 24): ("S-LocW", "Fig 8c"),
    ("miniamr+matmult", 8): ("P-LocW", "Fig 9a"),
    ("miniamr+matmult", 16): ("S-LocW", "Fig 9b"),
    ("miniamr+matmult", 24): ("S-LocW", "Fig 9c"),
}


@dataclass(frozen=True)
class SuiteEntry:
    """One workflow of the suite plus its paper ground truth."""

    family: str
    ranks: int
    spec: WorkflowSpec
    paper_best: str
    figure: str

    @property
    def key(self) -> Tuple[str, int]:
        return (self.family, self.ranks)


def build_workflow(
    family: str,
    ranks: int,
    stack_name: str = "nvstream",
    iterations: Optional[int] = None,
    matmul_dim: Optional[int] = None,
) -> WorkflowSpec:
    """Build one suite workflow spec — the single constructor every driver
    (tests, sweeps, the campaign runner, the obs CLI) shares, so the same
    ``(family, ranks)`` cell always means the same spec.

    Parameters
    ----------
    family / ranks:
        A :data:`FAMILIES` member and concurrency level.
    stack_name:
        Storage-stack model (default: the paper's NVStream).
    iterations:
        Optional override of the family's iteration count (smaller =
        faster; used by reduced CI campaigns).
    matmul_dim:
        Optional matrix dimension for the miniAMR MatrixMult kernel —
        the knob calibration sweeps turn; ignored by other families.  A
        dimension other than ``MINIAMR_MATMUL_DIM`` is named in the spec
        (``miniamr+matmult@8/dim24``), so its cell id differs.
    """
    if family == "micro-64mb":
        spec = micro_workflow(LARGE_OBJECT_BYTES, ranks, stack_name=stack_name)
    elif family == "micro-2k":
        spec = micro_workflow(SMALL_OBJECT_BYTES, ranks, stack_name=stack_name)
    elif family == "gtc+readonly":
        spec = gtc_workflow(read_only_kernel(), ranks=ranks, stack_name=stack_name)
    elif family == "gtc+matmult":
        spec = gtc_workflow(
            gtc_matrixmult_kernel(), ranks=ranks, stack_name=stack_name
        )
    elif family == "miniamr+readonly":
        spec = miniamr_workflow(
            read_only_kernel(), ranks=ranks, stack_name=stack_name
        )
    elif family == "miniamr+matmult":
        dim = MINIAMR_MATMUL_DIM if matmul_dim is None else matmul_dim
        kernel = miniamr_matrixmult_kernel(MINIAMR_OBJECTS_PER_RANK, dim=dim)
        spec = miniamr_workflow(kernel, ranks=ranks, stack_name=stack_name)
        if dim != MINIAMR_MATMUL_DIM:
            # The name is what run manifests (and so cell ids) record of
            # the workload; the default kernel keeps the plain name.
            spec = dataclasses.replace(spec, name=f"{spec.name}/dim{dim}")
    else:
        raise ConfigurationError(f"unknown workload family {family!r}")
    if iterations is not None:
        if iterations <= 0:
            raise ConfigurationError(
                f"iterations must be positive, got {iterations}"
            )
        spec = dataclasses.replace(spec, iterations=iterations)
    return spec


def suite_entry(family: str, ranks: int, stack_name: str = "nvstream") -> SuiteEntry:
    """One suite workflow with its paper expectation."""
    key = (family, ranks)
    if key not in PAPER_EXPECTATIONS:
        raise ConfigurationError(
            f"no paper expectation for {family!r} at {ranks} ranks; the suite "
            f"covers {sorted(set(f for f, _ in PAPER_EXPECTATIONS))} at "
            f"{CONCURRENCY_LEVELS}"
        )
    best, figure = PAPER_EXPECTATIONS[key]
    return SuiteEntry(
        family=family,
        ranks=ranks,
        spec=build_workflow(family, ranks, stack_name=stack_name),
        paper_best=best,
        figure=figure,
    )


def workflow_suite(
    stack_name: str = "nvstream",
    families: Optional[Tuple[str, ...]] = None,
    ranks: Optional[Tuple[int, ...]] = None,
) -> List[SuiteEntry]:
    """The (filtered) workflow suite, in figure order."""
    families = families or FAMILIES
    ranks = ranks or CONCURRENCY_LEVELS
    entries = []
    for family in families:
        for r in ranks:
            entries.append(suite_entry(family, r, stack_name))
    return entries
