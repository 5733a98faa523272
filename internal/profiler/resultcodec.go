package profiler

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/addr"
	"repro/internal/binframe"
	"repro/internal/cpu"
	"repro/internal/osim"
)

// The binary CollectResult codec is the profile store's on-disk format: a
// complete collection run — samples with full counter snapshots, scheduler
// stats, the address-space layout for symbolization, and optional
// basic-block vectors — in one self-verifying blob.
//
//	"FZPR" | uvarint version | payload | crc32-Castagnoli (4 bytes LE)
//
// The framing is internal/binframe's; 32 bits of checksum is ample for a
// cache that recomputes on any mismatch. The encoding is deterministic
// (map keys sorted, floats stored as IEEE bit patterns): encoding the same
// result twice yields identical bytes, which is what lets the golden
// harness assert byte-identical analyses through the store.
//
// Counter snapshots are delta-encoded against the previous sample: every
// cpu.Counters field is monotone over a run, so consecutive deltas are
// small and uvarint-compress to a fraction of raw u64s.

// resultMagic identifies a profile-store entry.
const resultMagic = "FZPR"

// resultVersion is the payload layout version. Bump it on ANY layout
// change — including field additions to cpu.Counters or osim.Stats, which
// the codec spells out field by field below — so old entries are rejected
// (and transparently recomputed) instead of misdecoded.
const resultVersion = 2

// ErrCorrupt marks an entry that failed structural or checksum
// validation; the store responds by recomputing and overwriting.
var ErrCorrupt = errors.New("profiler: corrupt profile-store entry")

// ErrUnsupportedVersion marks an entry written by a different codec
// version; the store treats it like a miss.
var ErrUnsupportedVersion = errors.New("profiler: unsupported profile-store entry version")

var resultFormat = &binframe.Format{
	Magic: resultMagic, Version: resultVersion, Noun: "entry",
	Corrupt: ErrCorrupt, Unsupported: ErrUnsupportedVersion,
}

// Package-local names for the shared framing helpers; the codec tests
// build damaged entries by hand with them.
var (
	crcTable     = binframe.Table
	appendString = binframe.AppendString
)

// EncodeResult serializes res into a self-verifying binary blob.
func EncodeResult(res *CollectResult) []byte {
	// Conservative size guess: ~24B per delta-encoded sample plus fixed
	// overhead; resized by append as needed.
	buf := make([]byte, 0, 64+24*len(res.Profile.Samples))
	buf = resultFormat.Header(buf)

	p := res.Profile
	buf = appendString(buf, p.Workload)
	buf = appendString(buf, p.Machine)
	buf = binary.AppendUvarint(buf, p.Period)
	buf = binary.AppendUvarint(buf, uint64(len(p.Samples)))
	var prev cpu.Counters
	for i := range p.Samples {
		s := &p.Samples[i]
		buf = binary.LittleEndian.AppendUint64(buf, s.EIP)
		buf = binary.AppendUvarint(buf, uint64(s.Thread))
		if s.Kernel {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendCounterDelta(buf, s.Counters, prev)
		prev = s.Counters
	}

	buf = appendCounterDelta(buf, res.Counters, cpu.Counters{})
	buf = appendOSStats(buf, res.OS)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Seconds))
	buf = binary.AppendUvarint(buf, res.MemRefsDropped)

	var regions []addr.Region
	if res.Space != nil {
		regions = res.Space.Regions()
	}
	buf = binary.AppendUvarint(buf, uint64(len(regions)))
	for _, r := range regions {
		buf = appendString(buf, r.Name)
		buf = binary.LittleEndian.AppendUint64(buf, r.Base)
		buf = binary.AppendUvarint(buf, r.Size)
	}

	buf = binary.AppendUvarint(buf, uint64(len(res.BBV)))
	for i := range res.BBV {
		v := &res.BBV[i]
		buf = binary.AppendUvarint(buf, uint64(v.Index))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.CPI))
		pcs := make([]uint64, 0, len(v.Counts))
		for pc := range v.Counts {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
		buf = binary.AppendUvarint(buf, uint64(len(pcs)))
		prevPC := uint64(0)
		for _, pc := range pcs {
			buf = binary.AppendUvarint(buf, pc-prevPC)
			buf = binary.AppendUvarint(buf, uint64(v.Counts[pc]))
			prevPC = pc
		}
	}

	return binframe.Seal(buf)
}

// DecodeResult deserializes a blob written by EncodeResult. It verifies
// the checksum before trusting any field; structural damage comes back as
// ErrCorrupt and foreign versions as ErrUnsupportedVersion, so callers can
// distinguish "recompute and overwrite" from "written by another build".
func DecodeResult(data []byte) (*CollectResult, error) {
	d, err := resultFormat.Open(data)
	if err != nil {
		return nil, err
	}

	p := &Profile{}
	p.Workload = d.String()
	p.Machine = d.String()
	p.Period = d.Uvarint()
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(d.Len()) { // >=1 byte per sample
		return nil, fmt.Errorf("%w: sample count %d exceeds payload", ErrCorrupt, n)
	}
	p.Samples = make([]Sample, 0, n)
	var prev cpu.Counters
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var s Sample
		s.EIP = d.U64()
		s.Thread = int(d.Uvarint())
		s.Kernel = d.Byte() != 0
		s.Counters = counterDelta(&d, prev)
		prev = s.Counters
		p.Samples = append(p.Samples, s)
	}

	res := &CollectResult{Profile: p}
	res.Counters = counterDelta(&d, cpu.Counters{})
	res.OS = osStats(&d)
	res.Seconds = math.Float64frombits(d.U64())
	res.MemRefsDropped = d.Uvarint()

	nr := d.Uvarint()
	if d.Err() == nil && nr > uint64(d.Len()) {
		return nil, fmt.Errorf("%w: region count %d exceeds payload", ErrCorrupt, nr)
	}
	regions := make([]addr.Region, 0, nr)
	for i := uint64(0); i < nr && d.Err() == nil; i++ {
		var r addr.Region
		r.Name = d.String()
		r.Base = d.U64()
		r.Size = d.Uvarint()
		regions = append(regions, r)
	}
	res.Space = addr.SpaceFromRegions(regions)

	nv := d.Uvarint()
	if d.Err() == nil && nv > uint64(d.Len()) {
		return nil, fmt.Errorf("%w: BBV count %d exceeds payload", ErrCorrupt, nv)
	}
	if nv > 0 {
		res.BBV = make([]BlockVector, 0, nv)
	}
	for i := uint64(0); i < nv && d.Err() == nil; i++ {
		var v BlockVector
		v.Index = int(d.Uvarint())
		v.CPI = math.Float64frombits(d.U64())
		nc := d.Uvarint()
		if d.Err() == nil && nc > uint64(d.Len()) {
			return nil, fmt.Errorf("%w: BBV entry count %d exceeds payload", ErrCorrupt, nc)
		}
		v.Counts = make(map[uint64]int, nc)
		pc := uint64(0)
		for j := uint64(0); j < nc && d.Err() == nil; j++ {
			pc += d.Uvarint()
			v.Counts[pc] = int(d.Uvarint())
		}
		res.BBV = append(res.BBV, v)
	}

	if err := d.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// appendCounterDelta writes c - prev field by field. Keep the field order
// in lockstep with counterDelta; any change to cpu.Counters must
// be mirrored here AND bump resultVersion.
func appendCounterDelta(buf []byte, c, prev cpu.Counters) []byte {
	d := c.Sub(prev)
	for _, v := range []uint64{
		d.Insts, d.Cycles,
		d.WorkCycles, d.FECycles, d.EXECycles, d.OtherCycles,
		d.Branches, d.Mispredicts, d.PrefetchHits,
		d.L1DMisses, d.L2Misses, d.L3Misses, d.L1IMisses,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// appendOSStats writes every osim.Stats field; same lockstep/versioning
// rule as appendCounterDelta.
func appendOSStats(buf []byte, s osim.Stats) []byte {
	for _, v := range []uint64{
		s.ContextSwitches, s.Voluntary, s.Involuntary,
		s.KernelInsts, s.UserInsts, s.IdleCycles, s.IOWaits,
	} {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

func counterDelta(d *binframe.Decoder, prev cpu.Counters) cpu.Counters {
	return cpu.Counters{
		Insts:        prev.Insts + d.Uvarint(),
		Cycles:       prev.Cycles + d.Uvarint(),
		WorkCycles:   prev.WorkCycles + d.Uvarint(),
		FECycles:     prev.FECycles + d.Uvarint(),
		EXECycles:    prev.EXECycles + d.Uvarint(),
		OtherCycles:  prev.OtherCycles + d.Uvarint(),
		Branches:     prev.Branches + d.Uvarint(),
		Mispredicts:  prev.Mispredicts + d.Uvarint(),
		PrefetchHits: prev.PrefetchHits + d.Uvarint(),
		L1DMisses:    prev.L1DMisses + d.Uvarint(),
		L2Misses:     prev.L2Misses + d.Uvarint(),
		L3Misses:     prev.L3Misses + d.Uvarint(),
		L1IMisses:    prev.L1IMisses + d.Uvarint(),
	}
}

func osStats(d *binframe.Decoder) osim.Stats {
	return osim.Stats{
		ContextSwitches: d.Uvarint(),
		Voluntary:       d.Uvarint(),
		Involuntary:     d.Uvarint(),
		KernelInsts:     d.Uvarint(),
		UserInsts:       d.Uvarint(),
		IdleCycles:      d.Uvarint(),
		IOWaits:         d.Uvarint(),
	}
}
