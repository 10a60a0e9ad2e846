package tsdb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb/chunkenc"
)

// CutPersistentBlock snapshots all samples in [mint, maxt] into a new
// immutable level-1 raw block — the unit of replication from the hot head
// to long-term storage (the Thanos sidecar path in the paper's
// architecture). The block is written as a block directory under parent
// (crash-safe, see blockdir.go) and returned as an open read handle; with
// parent == "" it is assembled in memory instead. A range holding no
// samples writes nothing and returns (nil, nil). The head is not modified;
// callers typically Truncate afterwards.
//
// The cut fans out per shard on the shared worker pool: each shard walks
// its own series, reusing closed immutable chunks that fall entirely inside
// the range (their bytes and recorded time bounds go to the block as they
// are — nothing is decoded) and re-encoding only boundary chunks, the open
// head chunk and series holding out-of-order samples. The per-shard slices
// arrive label-sorted and are combined with the same k-way merge Select
// uses, so output is identical for any shard count.
func (db *DB) CutPersistentBlock(parent string, mint, maxt int64) (*PersistentBlock, error) {
	parts := make([][]diskSeries, len(db.shards))
	errs := make([]error, len(db.shards))
	db.forEachShard(func(i int, sh *headShard) {
		parts[i], errs[i] = sh.cutSorted(mint, maxt, db.opts.MaxSamplesPerChunk)
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tsdb: cut block: %w", err)
		}
	}
	series := model.MergeSorted(parts, func(a, c diskSeries) int { return labels.Compare(a.lset, c.lset) }, nil)
	if len(series) == 0 {
		return nil, nil
	}
	return finishBlock(parent, &BlockMeta{Level: 1}, series)
}

// finishBlock is the one way a built block comes to be: series, label-sorted
// with every chunk encoded, become a block directory under parent
// (writeBlockDir) opened for reading, or with parent == "" an in-memory
// block. A raw block's time bounds are its chunks' bounds; a downsampled
// one, and a block with no series, keeps the ones meta brings.
func finishBlock(parent string, meta *BlockMeta, series []diskSeries) (*PersistentBlock, error) {
	if len(series) > 0 && meta.Resolution == 0 {
		meta.MinTime, meta.MaxTime = math.MaxInt64, math.MinInt64
		for i := range series {
			for _, c := range series[i].chunks {
				meta.MinTime = min(meta.MinTime, c.minT)
				meta.MaxTime = max(meta.MaxTime, c.maxT)
			}
		}
	}
	if parent == "" {
		return newMemPersistentBlock(meta, series)
	}
	dir, err := writeBlockDir(parent, meta, series)
	if err != nil {
		return nil, err
	}
	return OpenBlockDir(dir)
}

// seriesCutter is the one writer of block chunks: it accumulates one stream
// of one series — the cut's raw samples, a compaction's merged stream, a
// downsampling's aggregate points — as chunks of aggr. add re-encodes
// individual samples, reuse adopts a closed head chunk wholesale (flushing
// any pending re-encoded samples first so time order holds). Every chunk is
// recorded with the time bounds the cutter already knows, so nothing
// downstream has to decode it again.
type seriesCutter struct {
	aggr        AggrType
	maxPerChunk int
	chunks      []encodedChunk
	// cur is the chunk being filled, empty between chunks; held by value so
	// that a cut chunk costs no Chunk allocation, only its bytes.
	cur            chunkenc.Chunk
	curMin, curMax int64
}

func (sc *seriesCutter) add(t int64, v float64) error {
	if sc.cur.NumSamples() == 0 {
		sc.cur = *chunkenc.NewChunk()
		sc.curMin = t
	}
	if err := sc.cur.Append(t, v); err != nil {
		return err
	}
	sc.curMax = t
	if sc.cur.NumSamples() >= sc.maxPerChunk {
		sc.flush()
	}
	return nil
}

func (sc *seriesCutter) flush() {
	if sc.cur.NumSamples() > 0 {
		sc.push(&sc.cur, sc.curMin, sc.curMax)
		sc.cur = chunkenc.Chunk{}
	}
}

func (sc *seriesCutter) reuse(cr *chunkRange) {
	sc.flush()
	sc.push(cr.chunk, cr.min, cr.max)
}

func (sc *seriesCutter) push(c *chunkenc.Chunk, minT, maxT int64) {
	sc.chunks = append(sc.chunks, encodedChunk{
		diskChunk: diskChunk{aggr: sc.aggr, minT: minT, maxT: maxT, numSamples: uint16(c.NumSamples())},
		payload:   c.Bytes(),
	})
}

// cutSorted builds the shard's contribution to a block cut: every series
// with samples in [mint, maxt], label-sorted.
func (sh *headShard) cutSorted(mint, maxt int64, maxPerChunk int) ([]diskSeries, error) {
	sh.mu.RLock()
	series := make([]*memSeries, 0, len(sh.byRef))
	for _, s := range sh.byRef {
		series = append(series, s)
	}
	sh.mu.RUnlock()
	out := make([]diskSeries, 0, len(series))
	for _, s := range series {
		chunks, err := s.cut(mint, maxt, maxPerChunk)
		if err != nil {
			return nil, err
		}
		if len(chunks) > 0 {
			out = append(out, diskSeries{lset: s.lset, chunks: chunks})
		}
	}
	sort.Slice(out, func(i, j int) bool { return labels.Compare(out[i].lset, out[j].lset) < 0 })
	return out, nil
}

// cut snapshots the series' samples in [mint, maxt] into block chunks.
// Series without out-of-order samples reuse closed chunks that lie fully in
// range; everything else re-encodes.
func (s *memSeries) cut(mint, maxt int64, maxPerChunk int) ([]encodedChunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := seriesCutter{maxPerChunk: maxPerChunk}
	if len(s.ooo) == 0 {
		var scratch [128]model.Sample // a default-sized chunk's samples
		buf := scratch[:0]
		decode := func(cr *chunkRange) error {
			var err error
			buf, err = appendChunk(buf[:0], cr.chunk, cr.marks, mint, maxt, nil)
			for _, smp := range buf {
				if err := sc.add(smp.T, smp.V); err != nil {
					return err
				}
			}
			return err
		}
		for _, cr := range s.chunks {
			if cr.min > maxt {
				break
			}
			if cr.max < mint {
				continue
			}
			if cr.min >= mint && cr.max <= maxt {
				sc.reuse(cr)
				continue
			}
			if err := decode(cr); err != nil {
				return nil, err
			}
		}
		if h := s.head; h != nil && !(h.max < mint || h.min > maxt) {
			if err := decode(h); err != nil {
				return nil, err
			}
		}
		sc.flush()
		return sc.chunks, nil
	}
	// Out-of-order samples present: the merged view is not chunk-aligned,
	// re-encode it sample by sample.
	for _, smp := range headReader(mint, maxt).samplesLocked(s) {
		if err := sc.add(smp.T, smp.V); err != nil {
			return nil, err
		}
	}
	sc.flush()
	return sc.chunks, nil
}
