// Package podc is the public API of the repro library: a reproduction of
// Browne, Clarke and Grumberg, "Reasoning about Networks with Many Identical
// Finite State Processes" (PODC 1986; Information and Computation 81, 1989),
// generalised from the paper's token ring to a topology-parametric family
// engine.
//
// The package wraps the internal engines — Kripke structures, the CTL*/ICTL*
// model checker, the stuttering-correspondence decision procedure and the
// parameterized-verification methodology — behind a small set of stable
// types:
//
//   - Structure and Builder construct, parse and serialise Kripke
//     structures (the labelled transition graphs of Section 2);
//   - Formula parses and classifies CTL*/ICTL* specifications;
//   - Verifier model checks formulas against one structure, optionally
//     after quotienting it by its verified self-correspondence
//     (WithMinimize);
//   - Correspond / IndexedCorrespond decide the stuttering correspondence
//     of Section 3 and its indexed variant of Section 4, the relations that
//     transfer CTL* (no nexttime) truth between structures of different
//     sizes (Theorems 2 and 5);
//   - Topology selects a parameterized family — the Section 5 token ring
//     (RingTopology) or one of the generalised token-circulation families
//     (StarTopology, LineTopology, TreeTopology, TorusTopology), all backed
//     by internal/family — bundling its instance generator, inductive index
//     relation, cutoff heuristic and specifications; every Session method
//     takes the topology it works on;
//   - Network and ProcessTemplate expose the guarded-command substrate for
//     defining new families beyond the built-in topologies;
//   - Family and VerifyFamily run the paper's three-step methodology
//     (check a small instance, establish the correspondence, conclude for
//     every size) and produce portable TransferCertificates — any
//     Topology adapts via its Family method;
//   - Session is the serving-side entry point: a long-lived, concurrency-safe
//     cache of built instances and their verifiers (keyed by topology, size
//     and construction route), decided correspondences (keyed by topology
//     and sizes) and experiment tables, with streaming (iter.Seq) delivery
//     of sweeps and experiment batteries.
//
// Every potentially long-running operation takes a context.Context and
// returns promptly with the context's error once it is cancelled or its
// deadline passes; the internal engines poll the context at pass boundaries,
// so cancellation reaches even a correspondence computation that is deep in
// its refinement loop.
//
// Behaviour is configured with functional options (WithWorkers,
// WithMinimize, WithAtoms, WithStore, ...) rather than option structs;
// options that do not apply to an operation are ignored.
//
// The command line tools under cmd/ and the runnable examples under
// examples/ are all written against this package; cmd/podcserve exposes the
// same operations as an HTTP/JSON service whose /v1/correspond and
// /v1/transfer endpoints dispatch on the request's topology field.  The
// Example functions in this package's test files are executed by go test,
// so the documented snippets cannot drift from the code; PAPER_MAP.md (repo
// root) maps every definition of the paper to its implementation.
package podc
