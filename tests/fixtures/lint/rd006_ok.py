"""RD006 clean: every armed or stage-fired site comes from the registered list."""

from repro.obs.seam import StageRow
from repro.resilience.faults import FaultPlan

plan = (
    FaultPlan(seed=0)
    .on("engine.operator", mode="raise", rate=0.5)
    .on("artifact.write", mode="raise", rate=0.1)
    .on("serve.supervisor", mode="exit", calls={2})
    .on("serve.batch", mode="hang", delay=0.05)
)
row = StageRow(deadline="optimize", fault_site="optimizer.optimize")
serve = StageRow(fault_site=f"serve.{plan.seed}")
