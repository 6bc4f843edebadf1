// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_SERVE_SERVE_MAIN_H_
#define PME_SERVE_SERVE_MAIN_H_

#include "common/flags.h"

namespace pme::serve {

/// The `pme serve` entry point, shared by the pme_cli subcommand and the
/// standalone tools/pme_serve binary. Loads a dataset (--data=FILE with
/// --sensitive=ATTR, or a synthetic Adult-like table via --records=N),
/// bucketizes it (--ell), builds one TableArtifact, and serves
/// newline-delimited JSON analyze requests until SIGINT/SIGTERM.
///
/// Flags: --data --sensitive --id --ell --records --seed --host --port
///        --threads --deadline-ms --cache --cache-mb
///        --max-connections
int ServeMain(const Flags& flags);

}  // namespace pme::serve

#endif  // PME_SERVE_SERVE_MAIN_H_
