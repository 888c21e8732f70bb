package lint

// PrivacyFlow is the interprocedural privacy-boundary rule. It builds
// the module-wide call graph, runs the field-sensitive taint engine
// (taint.go) over it, and reports every flow where raw series data —
// a value of a configured source type such as timeseries.Series —
// reaches the federated boundary: a field of a configured sink type
// (fl.Message), or an argument of a configured sink function
// (fl.Transport.Call, codec.Encode). Flows that pass through an
// allowlisted aggregating sanitizer (metafeat.ExtractClient, loss
// reductions, ...) are accepted: aggregation is precisely the privacy
// mechanism the paper claims.
//
// Each finding carries the full source→sink chain, so a three-hop
// leak (series → helper → encode) is reported at the call that
// completes the flow with every intermediate function named.
var PrivacyFlow = &Analyzer{
	Name: "privacyflow",
	Doc: "raw series data must not reach fl.Message fields or transport/encode " +
		"sinks except through an allowlisted aggregating sanitizer",
	RunModule: runPrivacyFlow,
}

func runPrivacyFlow(p *ModulePass) {
	newTaintEngine(p.Fset, p.Config, p.graph()).run(p)
}
