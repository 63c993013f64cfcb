// Quickstart: bring up a one-host HPC-cloud deployment, connect to a
// storage service over the adaptive fabric, and run a few I/Os.
//
// The client and target share the host, so the Connection Manager's
// locality check provisions a shared-memory region: payload moves through
// shared memory while the NVMe command capsules travel over TCP.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"nvmeoaf/oaf"
)

func main() {
	cluster := oaf.NewCluster(oaf.Config{Seed: 1})
	defer cluster.Close()
	if err := cluster.AddHost("hostA"); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddTarget("hostA", "nqn.2022-06.io.oaf:quickstart", oaf.TargetConfig{
		SSDCapacity: 1 << 30,
		RetainData:  true, // keep payload bytes so reads return real data
	}); err != nil {
		log.Fatal(err)
	}

	err := cluster.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.2022-06.io.oaf:quickstart", oaf.ConnectOptions{})
		if err != nil {
			return err
		}
		defer q.Close()
		fmt.Printf("connected; shared-memory data path: %v\n", q.SharedMemory)

		// Write a block and read it back.
		payload := bytes.Repeat([]byte("nvme-oaf!"), 1024)[:8192]
		wres, err := q.Write(0, payload)
		if err != nil {
			return err
		}
		fmt.Printf("write: %v total (device %v, fabric %v, other %v)\n",
			wres.Latency, wres.DeviceTime, wres.FabricTime, wres.OtherTime)

		rres, err := q.Read(0, len(payload))
		if err != nil {
			return err
		}
		fmt.Printf("read:  %v total (device %v, fabric %v, other %v)\n",
			rres.Latency, rres.DeviceTime, rres.FabricTime, rres.OtherTime)
		if !bytes.Equal(rres.Data, payload) {
			return fmt.Errorf("payload mismatch")
		}
		fmt.Println("payload verified through the adaptive fabric")

		// Pipeline a burst of modeled 128K reads and report bandwidth.
		const n, size = 64, 128 << 10
		start := ctx.Now()
		var asyncs []*oaf.Async
		for i := 0; i < n; i++ {
			asyncs = append(asyncs, q.ReadAsync(int64(i)*size, size))
		}
		for _, a := range asyncs {
			if _, err := q.Wait(a); err != nil {
				return err
			}
		}
		elapsed := ctx.Now() - start
		fmt.Printf("pipelined %d x 128K reads in %v (%.2f GB/s)\n",
			n, elapsed, float64(n*size)/1e9/elapsed.Seconds())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
