package main

import (
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

func TestASCIIArt(t *testing.T) {
	r := rng.New(13)
	img := make([]float32, dataset.ImageH*dataset.ImageW)
	dataset.RenderDigit(img, 8, dataset.DefaultGenOptions(), r)
	art := asciiArt(img, dataset.ImageH, dataset.ImageW)
	if len(art) != dataset.ImageH*(dataset.ImageW+1) {
		t.Fatalf("asciiArt length %d", len(art))
	}
}
