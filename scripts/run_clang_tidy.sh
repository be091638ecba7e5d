#!/bin/sh
# Runs clang-tidy over the static-analyzer and TEE sources using the build
# tree's compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is ON in the
# top-level CMakeLists). Checks and the WarningsAsErrors promotion set come
# from the repo-root .clang-tidy, so the `ctest -L tidy` test fails on
# the checks that indicate real bugs while plain warnings print without
# failing it.
#
# Exits 77 -- the ctest SKIP_RETURN_CODE -- when clang-tidy is not
# installed, so hosts without LLVM tooling report the lane as SKIPPED
# instead of failing (the container this repo grows in ships only the GNU
# toolchain).
set -eu

BUILD_DIR=${1:?usage: run_clang_tidy.sh BUILD_DIR}

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_clang_tidy: clang-tidy not found on PATH; skipping (exit 77)" >&2
  exit 77
fi
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "run_clang_tidy: $BUILD_DIR/compile_commands.json missing;" \
       "configure the build tree first" >&2
  exit 1
fi

SRC_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

# shellcheck disable=SC2046 -- file list is intentionally word-split; the
# repo has no paths with whitespace.
exec clang-tidy -p "$BUILD_DIR" --quiet \
  $(find "$SRC_ROOT/src/analysis" "$SRC_ROOT/src/tee" -name '*.cpp' | sort)
