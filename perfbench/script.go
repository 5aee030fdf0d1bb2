package main

import "encoding/json"

// The paper's interactive loop, as one fixed script per session:
// correspondences, a data walk, more correspondences, the sufficient
// illustration, a data chase and its undo, a source filter, row edits
// with periodic reads, then examples, the WYSIWYG view, status,
// accept and delete. The HTTP analysts and the direct workspace.Tool
// reference both run this list, so their outputs must agree byte for
// byte.

// targetSpec is the target relation every session maps into.
const targetSpec = "Sales(customer, product, carrier, qty)"

// step is one request of the loop. args is the JSON body for
// state-changing ops; reads carry none.
type step struct {
	op   string
	args json.RawMessage
}

// stateChanging reports whether the op is journaled and published to
// watchers.
func (s step) stateChanging() bool {
	switch s.op {
	case "corr", "walk", "chase", "undo", "filter", "rows", "accept":
		return true
	}
	return false
}

// loopSpec is the per-workload part of the script.
type loopSpec struct {
	edits     []edit
	readEvery int  // follow every Nth edit with a view or illustration read
	keep      bool // leave the session open (no DELETE) for the restart check
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// buildScript lists the loop's steps after session create. The
// create request itself is built by runSession, which knows the CSV
// directory.
func buildScript(src *source, spec loopSpec) []step {
	corr := func(col, attr string) step {
		return step{"corr", mustJSON(map[string]string{"spec": col + " -> Sales." + attr})}
	}
	steps := []step{
		corr("OrderLines.qty", "qty"),
		corr("Products.title", "product"),
		{"walk", mustJSON(map[string]string{"from": "OrderLines", "to": "Orders"})},
		corr("Customers.name", "customer"),
		corr("Shipments.carrier", "carrier"),
		{op: "illustration"},
		{"chase", mustJSON(map[string]string{"column": "Products.title", "value": src.chaseTitle})},
		{op: "undo"},
		{"filter", mustJSON(map[string]string{"kind": "source", "pred": "OrderLines.qty > 1"})},
	}
	for i, e := range spec.edits {
		steps = append(steps, step{"rows", mustJSON(e)})
		if spec.readEvery > 0 && (i+1)%spec.readEvery == 0 {
			if (i+1)/spec.readEvery%2 == 1 {
				steps = append(steps, step{op: "view"})
			} else {
				steps = append(steps, step{op: "illustration"})
			}
		}
	}
	steps = append(steps, step{op: "examples"}, step{op: "view"}, step{op: "status"}, step{op: "accept"})
	if !spec.keep {
		steps = append(steps, step{op: "delete"})
	}
	return steps
}

// createArgs is the session-create body for a CSV directory.
func createArgs(dir string) json.RawMessage {
	return mustJSON(map[string]any{"source": dir, "target": targetSpec, "name": "sales", "mine": true})
}

// method and path of a step against session id.
func (s step) route(id string) (string, string) {
	base := "/api/sessions/" + id
	switch {
	case s.op == "delete":
		return "DELETE", base
	case s.stateChanging():
		return "POST", base + "/" + s.op
	default:
		return "GET", base + "/" + s.op
	}
}
