// writer-lanes-transitive fixture (user half): calling a non-sanctioned
// helper that writes active_pairs_ makes this caller a writer — flagged at
// the call site even though this file never names active_pairs_ at all.
// on_timer() is the legal crossing, and the annotated call pins a reasoned
// exception. Pinned by LintInterproc.WriterLanesTransitive*.
struct RateRouterBase;

void bad_reset(RateRouterBase& router) {
  router.clear_active(3);
}

void good_tick(RateRouterBase& router) {
  router.on_timer(3);
}

void excused_reset(RateRouterBase& router) {
  // SPLICER_LINT_ALLOW(writer-lanes-transitive): test-only teardown; the
  // simulation is single-threaded here and no concurrent writer exists.
  router.clear_active(4);
}
