"""The service's result cache: its campaign store, indexed by cell id.

Every cell job carries the content id of the cell it will produce
(:func:`repro.obs.store.cell_id_for_spec`, computed at submit time), so a
job whose cell is already stored completes without simulating anything.
The stored cells are the service root's campaigns — there is no second
record format:

* ``results`` holds the cells of every finished pass;
* ``pending`` holds the cells finished since the last fold, in completion
  order.  :meth:`ResultCache.put` appends there as each worker returns and
  before its job is marked ``done``, so a ``done`` job's cell is durable.

:meth:`ResultCache.load` indexes both campaigns at the start of a pass;
:meth:`ResultCache.fold` ends it by appending the pending cells
``results`` lacks in cell-id order — so ``results`` is byte-independent of
completion order — and removing ``pending``.  A pass killed before its fold
leaves ``pending`` for the next pass to serve from and fold.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.obs.store import CampaignStore, StoredCell
# Importable here only because perfbench/tracing.py wraps it at this path.
from repro.obs.store import cell_id_for_spec  # noqa: F401

#: The campaign (under ``<root>/campaigns/``) service results accumulate in.
RESULTS_CAMPAIGN = "results"

#: The campaign fresh cells wait in until the end of their pass.
PENDING_CAMPAIGN = "pending"


class ResultCache:
    """Id → cell lookups over ``results`` and ``pending``."""

    def __init__(self, root: str) -> None:
        """*root* is the service directory; cells live in ``root/campaigns/``."""
        self.store = CampaignStore(os.path.join(root, "campaigns"))
        self._cells: Dict[str, StoredCell] = {}
        self.load()

    def load(self) -> None:
        """(Re)build the index from the stored campaigns."""
        self._cells = {}
        for name in (PENDING_CAMPAIGN, RESULTS_CAMPAIGN):
            if self.store.exists(name):
                for cell in self.store.read(name).cells:
                    self._cells[cell.cell_id] = cell

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self._cells

    def get(self, cell_id: str) -> Optional[StoredCell]:
        """The stored cell, or None on a miss."""
        return self._cells.get(cell_id)

    def put(self, cell: StoredCell) -> bool:
        """Append a fresh cell to ``pending``; False if it is already stored."""
        if cell.cell_id in self._cells:
            return False
        if not self.store.exists(PENDING_CAMPAIGN):
            self.store.create(PENDING_CAMPAIGN, {"suite": "service"})
        self.store.append_cell(PENDING_CAMPAIGN, cell)
        self._cells[cell.cell_id] = cell
        return True

    def fold(self) -> int:
        """Move ``pending`` into ``results``; returns the cells appended.

        Cells ``results`` already holds are skipped, so a fold killed
        part-way is finished by the next one without duplicates.
        """
        if not self.store.exists(PENDING_CAMPAIGN):
            return 0
        recorded = (
            {cell.cell_id for cell in self.store.read(RESULTS_CAMPAIGN).cells}
            if self.store.exists(RESULTS_CAMPAIGN)
            else set()
        )
        new = {
            cell.cell_id: cell
            for cell in self.store.read(PENDING_CAMPAIGN).cells
            if cell.cell_id not in recorded
        }
        if new and not self.store.exists(RESULTS_CAMPAIGN):
            self.store.create(RESULTS_CAMPAIGN, {"suite": "service"})
        for cell_id in sorted(new):
            self.store.append_cell(RESULTS_CAMPAIGN, new[cell_id])
        os.remove(self.store.path(PENDING_CAMPAIGN))
        return len(new)
