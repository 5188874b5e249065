// Package model holds the AlphaFold geometry: channel widths, stack depths
// and input feature sizes. The workload census in package workload costs the
// published shape (FullConfig) to reproduce Table 1; the miniature network
// that trains at SmallConfig scale lives in package train, with the
// featurization that feeds it.
package model

// Config fixes the model geometry. The zero value is not usable; call
// SmallConfig or FullConfig.
type Config struct {
	MSADepth int // S: number of MSA sequences after sampling
	ExtraMSA int // S_e: extra MSA sequences
	Crop     int // R: cropped residue count

	CM  int // MSA channel width
	CME int // extra-MSA channel width
	CZ  int // pair channel width
	CS  int // single-representation width (structure module)

	Heads      int // attention heads (MSA and triangle attention)
	COPM       int // outer-product-mean inner channel
	CTri       int // triangle multiplication hidden channel
	Transition int // transition expansion factor (AlphaFold uses 4)

	EvoBlocks      int // Evoformer stack depth (48 in AlphaFold)
	ExtraBlocks    int // extra MSA stack depth (4)
	TemplateBlocks int // template pair stack depth (2)
	StructLayers   int // structure module iterations (8 in AlphaFold)
	Recycles       int // recycling iterations (AlphaFold trains with up to 3)

	MSAFeat    int // input MSA feature width (one-hot residues + flags)
	TargetFeat int // target (sequence) feature width
	TemplFeat  int // template pair feature width
	RelPosBins int // relative-position encoding bins
}

// SmallConfig is the laptop-scale geometry used by tests, examples and the
// real convergence demonstration.
func SmallConfig() Config {
	return Config{
		MSADepth: 8, ExtraMSA: 4, Crop: 16,
		CM: 16, CME: 8, CZ: 8, CS: 16,
		Heads: 2, COPM: 4, CTri: 8, Transition: 2,
		EvoBlocks: 2, ExtraBlocks: 1, TemplateBlocks: 1,
		StructLayers: 2, Recycles: 1,
		MSAFeat: 23, TargetFeat: 21, TemplFeat: 8, RelPosBins: 13,
	}
}

// FullConfig is the published AlphaFold geometry (97M parameters). It is the
// shape the workload census uses for Table 1; it is far too slow to execute
// numerically on a CPU.
func FullConfig() Config {
	return Config{
		MSADepth: 124, ExtraMSA: 1024, Crop: 256,
		CM: 256, CME: 64, CZ: 128, CS: 384,
		Heads: 8, COPM: 32, CTri: 128, Transition: 4,
		EvoBlocks: 48, ExtraBlocks: 4, TemplateBlocks: 2,
		StructLayers: 8, Recycles: 3,
		MSAFeat: 49, TargetFeat: 22, TemplFeat: 88, RelPosBins: 65,
	}
}
