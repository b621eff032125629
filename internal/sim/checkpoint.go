package sim

import (
	"encoding/gob"
	"fmt"
	"io"

	"silentshredder/internal/addr"
	"silentshredder/internal/ctr"
	"silentshredder/internal/nvm"
)

// Memory-state checkpointing, in the spirit of the paper's gem5
// methodology ("we checkpoint the PowerGraph benchmarks at the beginning
// of the graph construction phase", §5): a machine's persistent memory
// state — NVM cell contents and wear, the counter region, and the
// functional image — can be serialized after a warmup phase and restored
// into fresh machines, so measurement runs skip the warmup.
//
// A checkpoint is also exactly a *DIMM image*: what an adversary with
// physical access walks away with. The attack-model tests analyze dumps
// through this same format.
//
// Caches are not part of the checkpoint; SaveMemoryState drains them
// first (write backs included), so a restored machine boots "cold but
// consistent" — the state a real NVDIMM holds after a clean shutdown.

// checkpointMagic identifies checkpoint streams.
const checkpointMagic = "SSCHKPT1"

// checkpoint is the serialized form.
type checkpoint struct {
	Magic   string
	Device  *nvm.State
	Region  map[addr.PageNum]ctr.CounterBlock
	Image   map[addr.PageNum][]byte
	Journal []string // names of persistent regions (informational)
}

// SaveMemoryState drains all caches (hierarchy write backs + counter
// flush) and serializes the machine's persistent memory state to w.
func (m *Machine) SaveMemoryState(w io.Writer) error {
	m.Hier.FlushAll()
	m.MC.Flush()
	cp := checkpoint{
		Magic:   checkpointMagic,
		Device:  m.Dev.Snapshot(),
		Region:  m.MC.CounterCache().SnapshotRegion(),
		Image:   m.Img.Snapshot(),
		Journal: m.Kernel.PersistentRegions(),
	}
	if err := gob.NewEncoder(w).Encode(&cp); err != nil {
		return fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadMemoryState restores a checkpoint produced by SaveMemoryState into
// this machine, replacing its memory state. The machine's configuration
// (especially the encryption key) must match the saving machine's, or
// decryption of the restored ciphertext will fail.
func (m *Machine) LoadMemoryState(r io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if cp.Magic != checkpointMagic {
		return fmt.Errorf("sim: not a checkpoint stream (magic %q)", cp.Magic)
	}
	// The image is a table indexed by frame number, so a page outside
	// the frame pool is rejected before it can size that table.
	for p := range cp.Image {
		if uint64(p) >= uint64(m.Cfg.MemPages) {
			return fmt.Errorf("sim: checkpoint image page %d is outside the %d-page frame pool", p, m.Cfg.MemPages)
		}
	}
	m.Hier.Crash() // drop any cached state without writing back
	m.Dev.Restore(cp.Device)
	m.MC.CounterCache().RestoreRegion(cp.Region)
	m.Img.Restore(cp.Image)
	if !m.Img.Enabled() {
		// Timing-only machine restoring a functional checkpoint: the
		// image stays empty by construction.
		return nil
	}
	if cp.Image == nil {
		// Functional machine restoring a timing-only checkpoint:
		// reconstruct the architectural contents from the ciphertext.
		m.MC.RecoverImage()
	}
	return nil
}
