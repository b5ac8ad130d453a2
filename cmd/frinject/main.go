// Command frinject introduces one of the paper's Fig. 7 inconsistency
// scenarios into a cluster image directory written by frmkfs:
//
//	frinject -dir cluster/ -scenario mismatch/file-id-corrupt -path /d00001/f0000007
//	frinject -list
//
// Because injections must target live metadata, the tool re-opens the
// images through a cluster loader that rebuilds the FID index by
// scanning (the images are authoritative; no sidecar state is needed).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"faultyrank/internal/imgdir"
	"faultyrank/internal/inject"
	"faultyrank/internal/lustre"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("frinject: ")
	var (
		dir      = flag.String("dir", "cluster", "cluster image directory")
		scenario = flag.String("scenario", "", "scenario name (see -list)")
		path     = flag.String("path", "", "target file path (a multi-stripe file); empty picks one")
		list     = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
			fmt.Printf("%-36s %s\n", s, s.Category())
		}
		return
	}

	var chosen inject.Scenario
	found := false
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		if s.String() == strings.TrimSpace(*scenario) {
			chosen, found = s, true
		}
	}
	if !found {
		log.Fatalf("unknown scenario %q (use -list)", *scenario)
	}

	images, err := imgdir.Load(*dir)
	if err != nil {
		log.Fatal(err)
	}
	c, err := lustre.Adopt(images)
	if err != nil {
		log.Fatal(err)
	}
	target := *path
	if target == "" {
		target, err = inject.PickTarget(c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("auto-selected target %s\n", target)
	}
	inj, err := inject.Inject(c, chosen, target)
	if err != nil {
		log.Fatal(err)
	}
	if err := imgdir.Save(*dir, images); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %s: %s\n", inj.Scenario, inj.Description)
	fmt.Printf("ground truth: %v field of %v", inj.Field, inj.VictimFID)
	if !inj.NewFID.IsZero() {
		fmt.Printf(" (now carrying %v)", inj.NewFID)
	}
	fmt.Println()
}
