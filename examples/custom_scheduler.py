#!/usr/bin/env python
"""Writing a drop-in Scheduler — the paper's extensibility claim in action.

"This modularity encourages others to write drop-in modules ... the effort
required to implement a simple policy is low, and rises slowly, scaling
commensurately with the complexity of the policy being implemented."

Below, a complete *price-aware* Scheduler in 19 lines of policy code: it
reads the hosts' advertised ``host_price`` attribute (the paper's example of
rich Collection information: "the amount charged per CPU cycle consumed")
and maps instances to the cheapest viable hosts, with next-cheapest
variants.  Everything else — Collection queries, reservation negotiation,
variant fallback, enactment — comes from the substrate.

Run:  python examples/custom_scheduler.py
"""

from repro import (
    Implementation,
    MachineSpec,
    MasterSchedule,
    Metasystem,
    ObjectClassRequest,
    ScheduleRequestList,
    Scheduler,
)


class CheapestFirstScheduler(Scheduler):
    """Map instances to the lowest-price viable hosts."""

    def compute_schedule(self, requests):
        candidates = []
        for request in requests:
            class_obj = request.class_obj
            records = self.require_hosts(self.viable_hosts(class_obj),
                                         class_obj)
            by_price = sorted(records,
                              key=lambda r: (float(r.get("host_price", 0)),
                                             r.member))
            for i in range(request.count):
                # this entry's host, then its fallback: the next cheapest
                candidates.append(self.candidates_for(class_obj, [
                    by_price[i % len(by_price)],
                    by_price[(i + 1) % len(by_price)]]))
        master = MasterSchedule.from_candidates(candidates, "cheapest",
                                                "next-cheapest")
        return ScheduleRequestList([master], label="cheapest-first")


def main() -> None:
    meta = Metasystem(seed=7)
    meta.add_domain("market")
    prices = [0.10, 0.02, 0.45, 0.07, 0.30]
    for i, price in enumerate(prices):
        meta.add_unix_host(f"node{i}", "market",
                           MachineSpec(arch="x86", os_name="Linux"),
                           price=price)
    meta.add_vault("market")
    app = meta.create_class("Batch", [Implementation("x86", "Linux")],
                            work_units=100.0)

    scheduler = CheapestFirstScheduler(meta.collection, meta.enactor,
                                       meta.transport)
    outcome = scheduler.run([ObjectClassRequest(app, count=3)])
    print(f"placed: {outcome.ok}")
    total = 0.0
    for mapping in outcome.feedback.reserved_entries:
        host = meta.resolve(mapping.host_loid)
        print(f"  {host.machine.name}  price={host.price:.2f}")
        total += host.price
    print(f"mean price paid: {total / 3:.3f} "
          f"(market mean {sum(prices) / len(prices):.3f})")
    assert total / 3 < sum(prices) / len(prices)


if __name__ == "__main__":
    main()
