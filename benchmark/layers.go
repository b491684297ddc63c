package main

import (
	"fmt"
	"io"
	"sort"

	"fedguard/internal/fl"
)

// perLayer lists the metrics of single layers, in the order printed. A
// traced run emits every one of them on every workload; a layer the
// workload leaves idle reads 0.
var perLayer = []metricDef{
	// Round engine, from RoundRecord.
	{Name: "fl.train_phase_s", Unit: "s", Better: "lower", Doc: "sum of RoundRecord.TrainSeconds"},
	{Name: "fl.aggregate_phase_s", Unit: "s", Better: "lower", Doc: "sum of RoundRecord.AggregateSeconds"},
	{Name: "fl.eval_phase_s", Unit: "s", Better: "lower", Doc: "sum of RoundRecord.EvalSeconds"},
	{Name: "fl.cold_rounds_s", Unit: "s", Better: "lower", Doc: "sum of Seconds over rounds that are not warm"},
	{Name: "fl.warm_rounds", Unit: "count", Better: "higher", Doc: "rounds classified warm: the sample count behind warm_round_s and post_barrier_s"},
	{Name: "fl.time_to_target_s", Unit: "s", Better: "lower", Doc: "cumulative round seconds until TestAccuracy >= 0.80 first holds"},
	{Name: "fl.rounds_to_target", Unit: "count", Better: "lower", Doc: "the round in which it first holds, R+1 when it never does"},
	{Name: "fl.kept_frac", Unit: "frac", Better: "higher", Doc: "updates that entered the aggregate divided by clients sampled"},
	{Name: "fl.engine_self_s", Unit: "s", Better: "lower", Doc: "aggregate phase minus the strategy spans inside it: psi update, byte accounting, per-round buffers"},
	{Name: "fl.between_rounds_s", Unit: "s", Better: "lower", Doc: "end of a round to its onRound callback: the checkpoint when one is configured"},
	// Strategy seam (decorator spans).
	{Name: "strategy.aggregate_s", Unit: "s", Better: "lower", Doc: "sum of Aggregate or Finalize calls"},
	{Name: "strategy.begin_round_s", Unit: "s", Better: "lower", Doc: "sum of BeginRound calls"},
	{Name: "strategy.submit_s", Unit: "s", Better: "lower", Doc: "sum of RoundStream.Submit calls"},
	{Name: "strategy.overlap_s", Unit: "s", Better: "higher", Doc: "sum of Overlap() busy time read just before Finalize: audit work hidden behind uploads"},
	{Name: "strategy.calls", Unit: "count", Better: "lower", Doc: "calls through the strategy seam"},
	// defense and aggregate probes on the last round's cohort.
	{Name: "defense.synthesize_s", Unit: "s", Better: "lower", Doc: "FedGuard.Synthesize"},
	{Name: "defense.audit_s", Unit: "s", Better: "lower", Doc: "FedGuard.Aggregate minus Synthesize"},
	{Name: "defense.synth_samples", Unit: "count", Better: "lower", Doc: "synthetic validation samples per round"},
	{Name: "aggregate.weighted_mean_s", Unit: "s", Better: "lower", Doc: "aggregate.WeightedMean"},
	{Name: "aggregate.krum_s", Unit: "s", Better: "lower", Doc: "aggregate.Krum with f = (m-1)/2"},
	// Client compute probes at the workload's shapes, median partition.
	{Name: "classifier.train_epoch_s", Unit: "s", Better: "lower", Doc: "classifier.Train, one epoch"},
	{Name: "classifier.evaluate_s", Unit: "s", Better: "lower", Doc: "classifier.Evaluate on the round's test subset"},
	{Name: "classifier.count_correct_s", Unit: "s", Better: "lower", Doc: "classifier.CountCorrectTensor on a synthetic-set-sized batch"},
	{Name: "cvae.train_epoch_s", Unit: "s", Better: "lower", Doc: "CVAE.Train, one epoch"},
	{Name: "cvae.generate_s", Unit: "s", Better: "lower", Doc: "Decoder.Generate for a synthetic-set-sized batch"},
	{Name: "fl.client_round_cold_s", Unit: "s", Better: "lower", Doc: "Client.RunRound, a client's first call (trains its CVAE when decoders are needed)"},
	{Name: "fl.client_round_warm_s", Unit: "s", Better: "lower", Doc: "Client.RunRound, the same client's second call"},
	{Name: "dataset.generate_s", Unit: "s", Better: "lower", Doc: "dataset.Generate of the training set"},
	{Name: "dataset.partition_s", Unit: "s", Better: "lower", Doc: "fl.Partition"},
	// fednet / wire conn seam (TCP workloads).
	{Name: "fednet.register_s", Unit: "s", Better: "lower", Doc: "start of Run to the first request byte the server writes"},
	{Name: "fednet.client_compute_s", Unit: "s", Better: "lower", Doc: "sum over client turns: request fully read to first update byte written"},
	{Name: "fednet.request_read_s", Unit: "s", Better: "lower", Doc: "sum over client turns: first to last request byte read"},
	{Name: "fednet.upload_write_s", Unit: "s", Better: "lower", Doc: "sum over client turns: first to last update byte written"},
	{Name: "fednet.slowest_client_s", Unit: "s", Better: "lower", Doc: "sum over rounds of the longest client turn: the barrier's blocking step"},
	{Name: "wire.bytes_up", Unit: "B", Better: "lower", Doc: "request frame bytes the server wrote; must equal the RoundRecord sum"},
	{Name: "wire.bytes_down", Unit: "B", Better: "lower", Doc: "update frame bytes the server read; must equal the RoundRecord sum"},
	{Name: "wire.write_calls", Unit: "count", Better: "lower", Doc: "Write calls on both ends of every connection"},
	// wire / codec / persist probes on the last round's payloads.
	{Name: "wire.write_update_raw_s", Unit: "s", Better: "lower", Doc: "wire.WriteMessage of a raw Update"},
	{Name: "wire.read_update_raw_s", Unit: "s", Better: "lower", Doc: "wire.ReadMessage of a raw Update"},
	{Name: "wire.write_update_codec_s", Unit: "s", Better: "lower", Doc: "delta-encode and wire.WriteMessage of an UpdateC"},
	{Name: "wire.read_update_codec_s", Unit: "s", Better: "lower", Doc: "wire.ReadMessage and delta-decode of an UpdateC"},
	{Name: "codec.encode_delta_s", Unit: "s", Better: "lower", Doc: "codec.EncodeDelta of an update against the round's global"},
	{Name: "codec.decode_delta_s", Unit: "s", Better: "lower", Doc: "codec.DecodeDelta of the same"},
	{Name: "codec.hash_s", Unit: "s", Better: "lower", Doc: "codec.Hash of the update"},
	{Name: "codec.delta_ratio", Unit: "frac", Better: "lower", Doc: "encoded delta bytes divided by 4 bytes per parameter"},
	{Name: "persist.write_checkpoint_s", Unit: "s", Better: "lower", Doc: "persist.WriteCheckpoint to io.Discard"},
	{Name: "persist.save_checkpoint_s", Unit: "s", Better: "lower", Doc: "persist.SaveCheckpoint: write, fsync, rename"},
	{Name: "persist.checkpoint_bytes", Unit: "B", Better: "lower", Doc: "size of that checkpoint"},
	// Cost of observing, and what no span explains.
	{Name: "telemetry.trace_overhead_frac", Unit: "frac", Better: "lower", Doc: "(run_s with the program's span export on - off) / off, both with the benchmark's seams in place"},
	{Name: "telemetry.spans", Unit: "count", Better: "lower", Doc: "spans the program exported"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower", Doc: "share of run_s covered by no layer span"},
	{Name: "bench.calibration_s", Unit: "s", Better: "lower", Doc: "a fixed tensor.MatMul spin, median of before and after: tells a noisy host from a slow program"},
}

// netStats is what the conn seam saw during one pass.
type netStats struct {
	registerS, clientComputeS, requestReadS, uploadWriteS, slowestClientS float64

	bytesUp, bytesDown int64
	writeCalls         int
	upByRound          map[int]int64
	downByRound        map[int]int64
	// turns are the client-side spans, parents not assigned yet.
	turns []span
}

// readConns turns the frame logs of both ends into netStats. Bytes are
// counted on the server's side, as RoundRecord does; the timeline is the
// clients'.
func readConns(server, clients []*tracedConn, runStart float64) netStats {
	ns := netStats{upByRound: map[int]int64{}, downByRound: map[int]int64{}}
	firstRequest := -1.0
	for _, c := range server {
		read, written, writes := c.log()
		ns.writeCalls += writes
		for _, f := range written {
			if isRequest(f.typ) {
				ns.bytesUp += int64(f.bytes)
				ns.upByRound[f.round] += int64(f.bytes)
				if firstRequest < 0 || f.first < firstRequest {
					firstRequest = f.first
				}
			}
		}
		for _, f := range read {
			if isUpdate(f.typ) {
				ns.bytesDown += int64(f.bytes)
				ns.downByRound[f.round] += int64(f.bytes)
			}
		}
	}
	if firstRequest >= 0 {
		ns.registerS = firstRequest - runStart
	}
	slowest := map[int]float64{}
	for _, c := range clients {
		read, written, writes := c.log()
		ns.writeCalls += writes
		requests := map[int]frame{}
		for _, f := range read {
			if isRequest(f.typ) {
				requests[f.round] = f
			}
		}
		for _, up := range written {
			req, ok := requests[up.round]
			if !isUpdate(up.typ) || !ok {
				continue
			}
			ns.requestReadS += req.last - req.first
			ns.clientComputeS += up.first - req.last
			ns.uploadWriteS += up.last - up.first
			if turn := up.last - req.first; turn > slowest[up.round] {
				slowest[up.round] = turn
			}
			ns.turns = append(ns.turns,
				span{Name: "fednet.request_read", Start: req.first, End: req.last, Parent: -1, Round: up.round, Client: c.client},
				span{Name: "fednet.client_compute", Start: req.last, End: up.first, Parent: -1, Round: up.round, Client: c.client},
				span{Name: "fednet.upload_write", Start: up.first, End: up.last, Parent: -1, Round: up.round, Client: c.client})
		}
	}
	for _, s := range slowest {
		ns.slowestClientS += s
	}
	return ns
}

// checkWire compares the conn seam's per-round byte counts with what the
// program reported in its RoundRecords.
func (ns netStats) checkWire(rounds []fl.RoundRecord) []string {
	var problems []string
	for _, r := range rounds {
		if up := ns.upByRound[r.Round]; up != r.WireUploadBytes {
			problems = append(problems, fmt.Sprintf("round %d: conn seam saw %d request bytes, RoundRecord says %d", r.Round, up, r.WireUploadBytes))
		}
		if down := ns.downByRound[r.Round]; down != r.WireDownloadBytes {
			problems = append(problems, fmt.Sprintf("round %d: conn seam saw %d update bytes, RoundRecord says %d", r.Round, down, r.WireDownloadBytes))
		}
	}
	return problems
}

// buildTree assembles the pass's span tree: the run, its rounds and their
// three phases rebuilt from the RoundRecords and anchored on the strategy
// span (Aggregate or Finalize starts the aggregate phase), the gap up to
// each onRound callback, registration over TCP, and below those the seam
// spans, adopted by containment.
func buildTree(p *pass, ns netStats) []span {
	loose := p.tr.snapshot()
	aggStart := map[int]float64{}
	for _, s := range loose {
		if s.Name == "strategy.aggregate" {
			aggStart[s.Round] = s.Start
		}
	}
	tree := []span{{Name: "run", Start: p.RunStart, End: p.RunStart + p.RunS, Parent: -1, Client: -1}}
	if ns.registerS > 0 {
		tree = append(tree, span{Name: "fednet.register", Start: p.RunStart, End: p.RunStart + ns.registerS, Client: -1})
	}
	for i, r := range p.Rounds {
		agg, ok := aggStart[r.Round]
		if !ok {
			continue
		}
		start := agg - r.TrainSeconds
		end := start + r.Seconds
		round := len(tree)
		tree = append(tree,
			span{Name: "round", Start: start, End: end, Round: r.Round, Client: -1},
			span{Name: "fl.train_phase", Start: start, End: agg, Parent: round, Round: r.Round, Client: -1},
			span{Name: "fl.aggregate_phase", Start: agg, End: agg + r.AggregateSeconds, Parent: round, Round: r.Round, Client: -1},
			span{Name: "fl.eval_phase", Start: agg + r.AggregateSeconds, End: end, Parent: round, Round: r.Round, Client: -1})
		if i < len(p.RoundAt) && p.RoundAt[i] > end {
			tree = append(tree, span{Name: "fl.between_rounds", Start: end, End: p.RoundAt[i], Round: r.Round, Client: -1})
		}
	}
	return adopt(tree, append(loose, ns.turns...))
}

// sumByName adds up v over the spans of each name.
func sumByName(spans []span, v []float64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += v[i]
	}
	return out
}

// keptFrac is updates aggregated over clients sampled: FedGuard reports
// what it kept, Krum aggregates the one update it selects, and everything
// else keeps whatever arrived.
func keptFrac(rounds []fl.RoundRecord) float64 {
	var kept, sampled float64
	for _, r := range rounds {
		arrived := float64(len(r.Sampled) - len(r.Dropped))
		sampled += float64(len(r.Sampled))
		if _, krum := r.Report[fl.ReportKrumSelected]; krum {
			kept++
		} else {
			kept += arrived - float64(r.Excluded())
		}
	}
	if sampled == 0 {
		return 0
	}
	return kept / sampled
}

// roundLayerMetrics fills in what the RoundRecords, the span tree and the
// conn seam give; the probes add the rest.
func roundLayerMetrics(p *pass, spans []span, ns netStats, m map[string]float64) {
	warm := warmOrLast(p.Rounds)
	for i, r := range p.Rounds {
		m["fl.train_phase_s"] += r.TrainSeconds
		m["fl.aggregate_phase_s"] += r.AggregateSeconds
		m["fl.eval_phase_s"] += r.EvalSeconds
		if warm[i] {
			m["fl.warm_rounds"]++
		} else {
			m["fl.cold_rounds_s"] += r.Seconds
		}
	}
	secs, n := timeToTarget(p.Rounds, targetAccuracy)
	m["fl.time_to_target_s"], m["fl.rounds_to_target"] = secs, float64(n)
	m["fl.kept_frac"] = keptFrac(p.Rounds)

	m["fl.engine_self_s"] = sumByName(spans, selfTimes(spans))["fl.aggregate_phase"]
	for _, s := range spans {
		switch s.Name {
		case "fl.between_rounds":
			m["fl.between_rounds_s"] += s.dur()
		case "strategy.aggregate", "strategy.begin_round", "strategy.submit":
			m[s.Name+"_s"] += s.dur()
			m["strategy.calls"]++
		}
	}
	if p.seam != nil {
		m["strategy.overlap_s"] = p.seam.overlap.Seconds()
	}

	m["fednet.register_s"] = ns.registerS
	m["fednet.client_compute_s"] = ns.clientComputeS
	m["fednet.request_read_s"] = ns.requestReadS
	m["fednet.upload_write_s"] = ns.uploadWriteS
	m["fednet.slowest_client_s"] = ns.slowestClientS
	m["wire.bytes_up"] = float64(ns.bytesUp)
	m["wire.bytes_down"] = float64(ns.bytesDown)
	m["wire.write_calls"] = float64(ns.writeCalls)
}

// shareTable is the per-workload table of where run_s went: each layer's
// busy time (sum of self times, which exceeds wall-clock for layers that
// run in parallel) and its share of the run's wall-clock.
type shareRow struct {
	Name  string  `json:"name"`
	BusyS float64 `json:"busy_s"`
	WallS float64 `json:"wall_s"`
	Share float64 `json:"share"`
}

func printShares(w io.Writer, rows []shareRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-28s %10s %10s %7s\n", "layer", "busy_s", "wall_s", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-28s %10.4f %10.4f %6.1f%%\n", row.Name, row.BusyS, row.WallS, 100*row.Share)
	}
}

func shareTable(spans []span) []shareRow {
	if len(spans) == 0 {
		return nil
	}
	busy := sumByName(spans, selfTimes(spans))
	wall := wallShares(spans)
	run := spans[0].dur()
	var rows []shareRow
	for name, w := range wall {
		row := shareRow{Name: name, BusyS: busy[name], WallS: w, Share: w / run}
		if name == "run" {
			row.Name = "unattributed"
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WallS != rows[j].WallS {
			return rows[i].WallS > rows[j].WallS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
