"""RL002 good fixture — sinks fed in deterministic order."""


def wake_all(sim, waiting):
    ready = {t for t in waiting if t.ready}
    for task in sorted(ready, key=lambda t: t.gid):
        sim.schedule(0.0, task.run)


def register_all(tracker, tasks, now):
    tracker.register_batch(sorted(set(tasks)), now)


def flush(sim, queues):
    for name in sorted(queues):
        sim.defer(queues[name].pop)
