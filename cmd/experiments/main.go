// Command experiments regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, at the chosen
// scale.
//
// Examples:
//
//	go run ./cmd/experiments -list
//	go run ./cmd/experiments -exp table2 -scale quick
//	go run ./cmd/experiments -exp all -scale standard
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fedtrans/internal/experiments"
)

type runner func(experiments.Scale) fmt.Stringer

var registry = map[string]runner{
	"fig1a":  func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure1a(s) },
	"fig1b":  func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure1b(s, 5) },
	"fig2":   func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure2(s) },
	"table1": func(s experiments.Scale) fmt.Stringer { return experiments.RunTable1(s) },
	"table2": func(s experiments.Scale) fmt.Stringer { return table2(s) },
	"fig6":   func(s experiments.Scale) fmt.Stringer { return stringerFunc(table2(s).Figure6String) },
	"fig7":   func(s experiments.Scale) fmt.Stringer { return stringerFunc(table2(s).Figure7String) },
	"fig8":   func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure8(s) },
	"fig9":   func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure9(s) },
	"table3": func(s experiments.Scale) fmt.Stringer { return experiments.RunTable3(s) },
	"fig10a": func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure10Beta(s) },
	"fig10b": func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure10Gamma(s) },
	"fig11w": func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure11Widen(s) },
	"fig11d": func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure11Deepen(s) },
	"fig12":  func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure12(s) },
	"fig13":  func(s experiments.Scale) fmt.Stringer { return experiments.RunFigure13(s) },
	"table4": func(s experiments.Scale) fmt.Stringer { return experiments.RunTable4(s) },
	"table5": func(s experiments.Scale) fmt.Stringer { return experiments.RunTable5(s) },
	"table6": func(s experiments.Scale) fmt.Stringer { return experiments.RunTable6(s) },
}

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }

// table2Once holds Table 2, which table2, fig6 and fig7 all render: a
// process runs at one scale, so it is computed once.
var table2Once struct {
	sync.Once
	r experiments.Table2Result
}

func table2(s experiments.Scale) experiments.Table2Result {
	table2Once.Do(func() { table2Once.r = experiments.RunTable2(s, nil) })
	return table2Once.r
}

func main() {
	exp := flag.String("exp", "", "experiment to run (or 'all')")
	scaleName := flag.String("scale", "quick", "quick|standard")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, n := range names {
			fmt.Println("  " + n)
		}
		fmt.Println("  all")
		return
	}

	var sc experiments.Scale
	switch *scaleName {
	case "quick":
		sc = experiments.Quick()
	case "standard":
		sc = experiments.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(1)
	}

	run := func(name string) {
		r, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(1)
		}
		start := time.Now()
		fmt.Printf("=== %s (scale=%s) ===\n", name, *scaleName)
		fmt.Println(r(sc).String())
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, n := range names {
			run(n)
		}
		return
	}
	run(*exp)
}
