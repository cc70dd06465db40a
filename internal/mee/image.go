package mee

// Image is the formatted metadata of one protected region: the bytes a
// fresh engine finds in DRAM, with every version and counter zero and every
// MAC valid. It is a pure function of the master key and the layout and is
// never written after Format returns, so any number of engines over
// separate memory modules may share one (NewFromImage copies it into DRAM).
type Image struct {
	key        [32]byte
	base       uint64
	dataBlocks int
	// meta holds every metadata block in address order: the L0 blocks,
	// then the nodes of each level from 1 up to the root node. The layout
	// places them contiguously from its first L0 block on.
	meta []byte
}

// Format builds the metadata image for a region of dataBlocks blocks at
// base under key. Each block's payload is zero and its MAC is keyed by the
// zero parent counter, so the blocks are independent and are sealed in
// address order.
func Format(base uint64, dataBlocks int, key [32]byte) (*Image, error) {
	layout, err := PlanLayout(base, dataBlocks)
	if err != nil {
		return nil, err
	}
	var mac macCtx
	macKey := macKeyOf(key)
	mac.init(macKey[:])
	img := &Image{key: key, base: base, dataBlocks: dataBlocks, meta: make([]byte, layout.MetadataBytes())}
	rest := img.meta
	seal := func(lvl, count int) {
		for idx := 0; idx < count; idx++ {
			blk := rest[:BlockSize]
			setMacOf(lvl, blk, mac.meta(payloadOf(lvl, blk), lvl, idx, 0))
			rest = rest[BlockSize:]
		}
	}
	seal(0, layout.L0Blocks)
	for lvl := 1; lvl <= layout.Levels(); lvl++ {
		seal(lvl, layout.LevelNodes[lvl-1])
	}
	return img, nil
}
