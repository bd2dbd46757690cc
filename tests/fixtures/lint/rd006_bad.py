"""RD006 violation: arming, or firing from a stage, an unregistered site."""

from repro.obs.seam import StageRow
from repro.resilience.faults import FaultPlan

plan = FaultPlan(seed=0).on("bogus.site", mode="raise", rate=1.0)
row = StageRow(deadline="optimize", fault_site="bogus.stage")
