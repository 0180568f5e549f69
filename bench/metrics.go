package main

import (
	"fmt"
	"io"
	"sort"
)

// e2eDef is one end-to-end metric: what a user of the system sees. bound
// is the share of the parent's median by which the metric may worsen
// before it counts as a regression; floor is an absolute change below
// which a difference is ignored. A metric with only set is reported by
// that one workload.
//
// The metrics without layer are BENCHMARK.json's end_to_end list, which
// the driver wants whole, never 0 and steady from every workload: ten
// runs of the same code may not spread by more than the bound, and no
// bound may exceed 0.25. A metric that cannot meet that has layer set:
// the driver gets it under that name in the per_layer list, which has no
// bounds, and compare judges it all the same (and calls it unresolved
// when the runs it is given spread wider than the bound).
type e2eDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
	floor      float64
	only       string
	layer      string
}

var endToEnd = []e2eDef{
	// Deploy + Start + preload/warm-up until every tuple is at the sink;
	// median of the set-ups of one run.
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.25},
	// Closed loop, one client keeping a window of tuples in flight: the
	// upper quartile of the rounds' rates. Not the issue's median of five
	// multi-million-tuple rounds, hence not its name (see the README).
	{name: "closed_loop_tuples_per_s", unit: "tuples/s", higher: true, bound: 0.25},
	// Process user+sys CPU over the open loop / tuples delivered in it.
	{name: "cpu_ns_per_tuple", unit: "ns", bound: 0.25},
	// Open loop: sink arrival minus due time, median.
	{name: "lat_p50_ms", unit: "ms", bound: 0.25},
	// Go heap in use after a forced collection at the end of the open
	// loop, the job still running; least of a few samples.
	{name: "live_heap_mb", unit: "MiB", bound: 0.10},
	// Open loop: the 99th percentile of each second's tuples, mean over
	// the seconds without the highest and lowest sixth. The whole loop's
	// 99th percentile is printed as lat_p99_ms and has no bound. It is the
	// wall time of a checkpoint's stall, which on a shared 2-core host is
	// a fifth to a third longer in some runs than in others, from their
	// first second to their last, while the CPU time is the same.
	{name: "lat_p99_typical_ms", unit: "ms", bound: 0.25, layer: "e2e.lat_p99_typical_ms"},
	// Open-loop tuples later than 10 ms or never delivered / sent: the
	// same stall over the checkpoint interval, and as unsteady.
	{name: "over_limit_share", unit: "ratio", bound: 0.25, layer: "e2e.over_limit_share"},
	// The longest any tuple due after the Fail (ScaleOut) call and before
	// the next transition waited for the sink; the time to the loop's
	// deadline when such a tuple never arrived.
	{name: "recover_outage_ms", unit: "ms", bound: 0.25, only: "transitions-dist", layer: "dist.recover_outage_ms"},
	{name: "scaleout_outage_ms", unit: "ms", bound: 0.25, only: "transitions-dist", layer: "dist.scaleout_outage_ms"},
}

// failedShareSlack is how far a change's failed_share may lie above the
// parent's, as an absolute difference, before compare calls it worse.
const failedShareSlack = 0.001

// layerDef is one per-layer metric and the end-to-end metric it is
// expected to move (the README has the full table).
type layerDef struct {
	name, unit string
	higher     bool
}

var perLayer = []layerDef{
	{"state.update_ns", "ns", false},
	{"state.buffer_append_ns_per_tuple", "ns", false},
	{"state.buffer_trim_us", "us", false},
	{"state.routing_lookup_ns", "ns", false},
	{"state.take_checkpoint_ms", "ms", false},
	{"state.encode_checkpoint_ms", "ms", false},
	{"state.checkpoint_bytes", "B", false},
	{"state.take_delta_ms", "ms", false},
	{"state.decode_checkpoint_ms", "ms", false},
	{"state.restore_ms", "ms", false},
	{"state.partition_checkpoint_ms", "ms", false},
	{"operator.counter_on_tuple_ns", "ns", false},
	{"operator.passthrough_on_tuple_ns", "ns", false},
	{"engine.hop_ns_per_tuple", "ns", false},
	{"engine.pipeline_ns_per_tuple", "ns", false},
	{"engine.pipeline_ckpt_ns_per_tuple", "ns", false},
	{"engine.unattributed_ns_per_tuple", "ns", false},
	{"engine.checkpoint_call_ms", "ms", false},
	{"engine.credit_stalls", "count", false},
	{"engine.peak_queue_depth", "count", false},
	{"engine.dup_dropped", "count", false},
	{"wirecodec.encode_int64_ns", "ns", false},
	{"wirecodec.decode_int64_ns", "ns", false},
	{"transport.hop_ns_per_tuple", "ns", false},
	{"transport.batch_rtt_us", "us", false},
	{"transport.bytes_per_tuple", "B", false},
	{"transport.frames_per_ktuple", "count", false},
	{"transport.credit_stalls", "count", false},
	{"transport.reconnects", "count", false},
	{"transport.heartbeat_misses", "count", false},
	{"transport.corrupt_frames", "count", false},
	{"core.backup_store_ms", "ms", false},
	{"core.apply_delta_ms", "ms", false},
	{"core.plan_recovery_ms", "ms", false},
	{"core.plan_replace_ms", "ms", false},
	{"core.ckpt_fulls", "count", false},
	{"core.ckpt_deltas", "count", false},
	{"core.ckpt_full_bytes_per_s", "B/s", false},
	{"controlplane.append_us", "us", false},
	{"controlplane.journal_appends", "count", false},
	{"controlplane.fsync_max_us", "us", false},
	{"dist.deploy_ms", "ms", false},
	{"dist.detect_ms", "ms", false},
	{"dist.recover_plan_ms", "ms", false},
	{"dist.replayed_tuples", "count", false},
	{"dist.recover_outage_ms", "ms", false},
	{"dist.scaleout_call_ms", "ms", false},
	{"dist.scaleout_plan_ms", "ms", false},
	{"dist.scaleout_outage_ms", "ms", false},
	{"dist.unattributed_ns_per_tuple", "ns", false},
	{"e2e.lat_p99_typical_ms", "ms", false},
	{"e2e.over_limit_share", "ratio", false},
	{"bench.gen_late_max_ms", "ms", false},
	{"bench.inject_blocked_share", "ratio", false},
	{"bench.backlog_end_tuples", "count", false},
	{"bench.samples", "count", true},
	{"bench.ref_single_thread_ns_per_tuple", "ns", false},
	{"bench.trace_overhead_share", "ratio", false},
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.4g", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	case v >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printOutcome writes one workload's numbers as a table, end-to-end
// metrics first in their declared order.
func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%g ==\n", o.Workload, o.Seed, o.Seconds)
	row := func(name string, m metric, extra string) {
		fmt.Fprintf(w, "  %-38s %14s %-9s %s\n", name, formatValue(m.Value), m.Unit, extra)
	}
	for _, d := range endToEnd {
		if m, ok := o.EndToEnd[d.name]; ok {
			row(d.name, m, fmt.Sprintf("(%s is better, bound %.2f)", better(d.higher), d.bound))
		}
	}
	row("failed_share", metric{o.failedShare(), "ratio"},
		fmt.Sprintf("(%d failed of %d attempted, +%g allowed)", o.Failed, o.Attempted, failedShareSlack))
	for _, name := range sortedNames(o.Detail) {
		row(name, o.Detail[name], "")
	}
	if len(o.Layers) > 0 {
		fmt.Fprintln(w, "  -- per layer --")
		seen := map[string]bool{}
		for _, d := range perLayer {
			if m, ok := o.Layers[d.name]; ok {
				row(d.name, m, "")
				seen[d.name] = true
			}
		}
		for _, name := range sortedNames(o.Layers) {
			if !seen[name] {
				row(name, o.Layers[name], "")
			}
		}
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if !o.Done {
		fmt.Fprintf(w, "  note: %s did not finish; the numbers above are partial\n", o.Workload)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// reconciliation prints the layer probes summed against the measured
// closed-loop cost per tuple, for the Live and the Distributed shape of
// the job. What the probes do not explain is the unattributed row.
func reconciliation(w io.Writer, o *outcome, distributed bool) {
	l := func(name string) float64 { return o.Layers[name].Value }
	drain := o.drainNs()
	fmt.Fprintf(w, "\n-- reconciliation, %s: closed-loop wall time per tuple = %.1f ns (%.0f tuples/s) --\n",
		o.Workload, drain, o.EndToEnd["closed_loop_tuples_per_s"].Value)
	line := func(label string, v float64) {
		fmt.Fprintf(w, "  %-58s %10.1f ns  %5.1f %%\n", label, v, 100*v/drain)
	}
	ops := l("operator.counter_on_tuple_ns") + l("operator.passthrough_on_tuple_ns")
	line("3 x engine.hop_ns_per_tuple (src->map->cnt->sink)", 3*l("engine.hop_ns_per_tuple"))
	line("operator.counter_on_tuple_ns + passthrough_on_tuple_ns", ops)
	line("  of which state.update_ns", l("state.update_ns"))
	line("engine.unattributed_ns_per_tuple (pipeline - 3 hops - operators)", l("engine.unattributed_ns_per_tuple"))
	line("= engine.pipeline_ns_per_tuple (4 operators, checkpoints off)", l("engine.pipeline_ns_per_tuple"))
	line("checkpointing (pipeline_ckpt - pipeline)", l("engine.pipeline_ckpt_ns_per_tuple")-l("engine.pipeline_ns_per_tuple"))
	if !distributed {
		line("residual (measured - engine.pipeline_ckpt_ns_per_tuple)", drain-l("engine.pipeline_ckpt_ns_per_tuple"))
		return
	}
	line("3 x transport.hop_ns_per_tuple (loopback, incl. codec)", 3*l("transport.hop_ns_per_tuple"))
	line("  of which wirecodec encode + decode, 3 hops", 3*(l("wirecodec.encode_int64_ns")+l("wirecodec.decode_int64_ns")))
	line("dist.unattributed_ns_per_tuple (measured - pipeline_ckpt - 3 hops)", l("dist.unattributed_ns_per_tuple"))
}
