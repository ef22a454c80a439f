"""Observability read-backs, all reached through the one active slot."""
from repro.obs.recorder import current


def charge_io(clock, amount):
    clock.advance(amount)


def direct(clock):
    reg = current().registry
    count = reg.snapshot()["counters"]["ntadoc_runs_total"]
    clock.advance(count * 10.0)


def indirect(clock):
    journal = current().journal
    backlog = journal.events
    charge_io(clock, len(backlog) * 2.0)


def stored(stats):
    reg = current().registry
    stats.device_ns = reg.snapshot()["gauges"]["ntadoc_pool_resident"]


def traced(clock):
    tracer = current().tracer
    clock.advance(tracer.total_sim_ns())
