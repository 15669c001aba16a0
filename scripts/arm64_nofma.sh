#!/usr/bin/env bash
# Fails when the arm64 compiler fuses a multiply-add in the optimizer or the
# parameter slab (internal/nn/optimizer.go, internal/nn/slab.go). arm64 has
# FMADDD/FMSUBD/FNMADDD/FNMSUBD and Go may fuse x*y+z into one of them, which
# rounds once where amd64 rounds twice: training on arm64 would then produce
# different weights. Every product there carries an explicit float64(...)
# conversion, which forbids the fusion; this check keeps it that way.
#
#   scripts/arm64_nofma.sh
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

files='(optimizer|slab)\.go'
# The build cache replays the compiler's -S listing, so a cached package
# still prints its assembly.
asm=$(GOARCH=arm64 go build -gcflags=prestroid/internal/nn=-S ./internal/nn 2>&1)
if ! grep -qE "/internal/nn/$files:[0-9]+\)" <<<"$asm"; then
  echo "arm64_nofma: no assembly listed for internal/nn/$files" >&2
  exit 1
fi
if fused=$(grep -E "/internal/nn/$files:[0-9]+\)" <<<"$asm" | grep -E $'[ \t]F(N?M(ADD|SUB))D[ \t]'); then
  echo "arm64_nofma: fused multiply-adds in the arm64 build:" >&2
  echo "$fused" >&2
  exit 1
fi
echo "arm64_nofma: no fused multiply-add in internal/nn/optimizer.go or slab.go"
