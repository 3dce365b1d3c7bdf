"""Small, obviously-correct models the production code is checked against.

* :mod:`.reference_scheduler` — the scalar per-tuple transaction
  scheduler; :class:`repro.ssd.scheduler.TransactionScheduler` must
  produce a bit-identical log on any stream.
* :mod:`.des_model` — the SSD resource pipeline as discrete-event
  processes; the list schedule's makespans must agree closely with it.
* :mod:`.planned_ftl` — an FTL that hands ``SSDevice.run`` the planned
  windows of a pre-passed lane; the batch backend's lockstep replay
  must match that per-lane replay bit for bit.
"""
