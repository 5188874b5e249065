package model

import "testing"

// TestFullConfigPublishedGeometry checks that FullConfig declares the
// published AlphaFold stack depths and representation widths. It does not
// count FullConfig's ~97M parameters: nothing counts them without
// allocating them.
func TestFullConfigPublishedGeometry(t *testing.T) {
	cfg := FullConfig()
	if cfg.EvoBlocks != 48 || cfg.ExtraBlocks != 4 || cfg.TemplateBlocks != 2 {
		t.Fatalf("FullConfig stack depths wrong: %+v", cfg)
	}
	if cfg.CM != 256 || cfg.CZ != 128 || cfg.Crop != 256 {
		t.Fatalf("FullConfig widths wrong: %+v", cfg)
	}
}
