"""RL002 bad fixture — unordered iteration feeding ordering-sensitive
sinks (path is under a ``repro/core`` segment so the sink check runs)."""


def wake_all(sim, waiting):
    ready = {t for t in waiting if t.ready}
    for task in ready:  # set order drives event scheduling
        sim.schedule(0.0, task.run)


def register_all(tracker, tasks, now):
    tracker.register_batch(set(tasks), now)  # set arg into registration


def flush(sim, queues):
    for q in queues.values():  # dict.values() order feeds defer
        sim.defer(q.pop)
