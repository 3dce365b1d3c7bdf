"""Small, obviously-correct models the production code is checked against.

* :mod:`.reference_scheduler` — the scalar per-tuple transaction
  scheduler; :class:`repro.ssd.scheduler.TransactionScheduler` must
  produce a bit-identical log on any stream.
* :mod:`.des_model` — the SSD resource pipeline as discrete-event
  processes; the list schedule's makespans must agree closely with it.
* :mod:`.planned_ftl` — an FTL that hands ``SSDevice.run`` the planned
  windows of a pre-passed lane; the batch backend's lockstep replay
  must match that per-lane replay bit for bit.
* :mod:`.stacked_prepass` — the whole matrix's pre-pass as one call
  with every device constant broadcast per row;
  :func:`repro.batch.plan.stack_plans`, pre-passing cell by cell, must
  give every cell the same lanes column for column.
* :mod:`.metrics` — the paper's metrics resource by resource and
  request by request over interval sets (:mod:`.intervals`);
  :func:`repro.ssd.metrics.compute_metrics` must equal it field by
  field on any log.
* :mod:`.flow_fixpoint` — the FLOW summary fixpoint as round-robin
  sweeps over every function; the worklist solve in
  :mod:`repro.flow.analysis` must reach the same summaries and findings.
"""
