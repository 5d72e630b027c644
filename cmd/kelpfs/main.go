// Command kelpfs is an interactive (or scripted) shell over a simulated
// node's sysfs-style control surface: the same cgroup/resctrl file formats
// an operator would use on a production Kelp host.
//
// Usage:
//
//	kelpfs [-ml CNN1] [-agg H]
//
// Commands (stdin, one per line; '#' starts a comment):
//
//	ls [path]          list a directory
//	cat <path>         read a control or counter file
//	write <path> <v>   write a control file (quotes not needed)
//	mkdir <path>       create a cgroup
//	rmdir <path>       remove a cgroup
//	run <ms>           advance simulated time
//	tasks              list tasks with current throughput
//	help               this text
//	quit               exit
//
// Example session:
//
//	mkdir /cgroup/batch
//	write /cgroup/batch/cpuset.cpus 8-21
//	write /resctrl/batch/schemata MB:0=50
//	run 500
//	cat /proc/counters
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kelp/internal/cgroup"
	"kelp/internal/experiments"
	"kelp/internal/node"
	"kelp/internal/resctrlfs"
	"kelp/internal/scenario"
	"kelp/internal/sim"
	"kelp/internal/workload"
)

func buildNode(ml, agg string) (*node.Node, error) {
	n, err := node.New(node.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cg := n.Cgroups()
	if !strings.EqualFold(ml, "none") {
		if _, err := cg.Create("ml", cgroup.High); err != nil {
			return nil, err
		}
		if err := cg.SetCPUs("ml", n.Processor().SocketCores(0).Take(4)); err != nil {
			return nil, err
		}
		kind, err := scenario.ParseML(ml)
		if err != nil {
			return nil, err
		}
		if _, err := experiments.NewMLTask(n, kind, "ml"); err != nil {
			return nil, err
		}
	}
	if !strings.EqualFold(agg, "none") {
		lvl, err := scenario.ParseLevel(agg)
		if err != nil {
			return nil, err
		}
		if _, err := cg.Create("agg", cgroup.Low); err != nil {
			return nil, err
		}
		a, err := workload.NewDRAMAggressor(lvl)
		if err != nil {
			return nil, err
		}
		cores := n.Processor().SocketCores(0)
		if err := cg.SetCPUs("agg", cores.Minus(cores.Take(4)).Take(a.Config().Threads)); err != nil {
			return nil, err
		}
		if err := n.AddTask(a, "agg"); err != nil {
			return nil, err
		}
	}
	return n, nil
}

const helpText = `commands: ls [path] | cat <path> | write <path> <value> |
          mkdir <path> | rmdir <path> | run <ms> | tasks | help | quit`

func main() {
	ml := flag.String("ml", "CNN1", "accelerated workload (RNN1/CNN1/CNN2/CNN3/none)")
	agg := flag.String("agg", "H", "DRAM aggressor level (L/M/H/none)")
	flag.Parse()

	n, err := buildNode(*ml, *agg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kelpfs:", err)
		os.Exit(1)
	}
	fs, err := resctrlfs.New(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kelpfs:", err)
		os.Exit(1)
	}

	fmt.Println("kelpfs: sysfs-style control surface over a simulated node")
	fmt.Println(helpText)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		var err error
		switch cmd {
		case "ls":
			path := "/"
			if len(args) > 0 {
				path = args[0]
			}
			var entries []string
			entries, err = fs.ReadDir(path)
			if err == nil {
				fmt.Println(strings.Join(entries, "  "))
			}
		case "cat":
			if len(args) != 1 {
				err = fmt.Errorf("usage: cat <path>")
				break
			}
			var data string
			data, err = fs.ReadFile(args[0])
			if err == nil {
				fmt.Println(data)
			}
		case "write":
			if len(args) < 2 {
				err = fmt.Errorf("usage: write <path> <value>")
				break
			}
			err = fs.WriteFile(args[0], strings.Join(args[1:], " "))
		case "mkdir":
			if len(args) != 1 {
				err = fmt.Errorf("usage: mkdir <path>")
				break
			}
			err = fs.Mkdir(args[0])
		case "rmdir":
			if len(args) != 1 {
				err = fmt.Errorf("usage: rmdir <path>")
				break
			}
			err = fs.Rmdir(args[0])
		case "run":
			if len(args) != 1 {
				err = fmt.Errorf("usage: run <ms>")
				break
			}
			var ms float64
			ms, err = strconv.ParseFloat(args[0], 64)
			if err != nil || ms <= 0 {
				err = fmt.Errorf("usage: run <ms>")
				break
			}
			n.Run(ms * sim.Millisecond)
			fmt.Printf("now %s\n", sim.FormatTime(n.Now()))
		case "tasks":
			for _, t := range n.Tasks() {
				fmt.Printf("%-16s %12.1f units/s\n", t.Name(), t.Throughput(n.Now()))
			}
		case "help":
			fmt.Println(helpText)
		case "quit", "exit":
			return
		default:
			err = fmt.Errorf("unknown command %q (try help)", cmd)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	}
}
