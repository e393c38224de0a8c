#!/usr/bin/env python3
"""Trace collection, visualization and archiving.

Simulates a handful of CCAs over one bottleneck, prints their visible
congestion windows as sparklines (the dynamics the synthesizer learns
from: Reno's sawtooth, Cubic's plateau, BBR's pulses, Vegas's flat
line), and archives the traces to JSON and CSV.

Run:  python examples/trace_collection.py
"""

from pathlib import Path

from repro.cca import make_cca
from repro.netsim import Environment, simulate
from repro.reporting import format_series
from repro.trace import export_csv, save_traces, segment_trace


def main() -> None:
    env = Environment(bandwidth_mbps=10, rtt_ms=50)
    print(
        f"Bottleneck: {env.bandwidth_mbps:g} Mbps, {env.rtt_ms:g} ms RTT, "
        f"{env.queue_capacity_bytes} B buffer (BDP {env.bdp_bytes} B)\n"
    )
    traces = []
    for name in ("reno", "cubic", "bbr", "vegas", "westwood", "student2"):
        trace = simulate(make_cca(name), env, duration=20.0)
        traces.append(trace)
        cwnd = trace.cwnd_bytes[~trace.dupack].tolist()
        segments = segment_trace(trace)
        print(format_series(f"{name} cwnd (B)", cwnd))
        print(
            f"{'':24s} {len(trace)} acks, {len(trace.losses)} losses, "
            f"{len(segments)} segments"
        )

    out_dir = Path("trace_archive")
    out_dir.mkdir(exist_ok=True)
    save_traces(traces, out_dir / "zoo.json")
    export_csv(traces[0], out_dir / f"{traces[0].cca_name}.csv")
    print(f"\nArchived {len(traces)} traces under {out_dir}/")


if __name__ == "__main__":
    main()
